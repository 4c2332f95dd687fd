#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/backend.h"
#include "core/aggregation.h"
#include "core/operators.h"
#include "core/presence_index.h"
#include "datagen/random.h"
#include "storage/bitset.h"
#include "test_graphs.h"
#include "util/parallel.h"

/// \file
/// Differential suite for the pluggable compute backends (accel/backend.h):
///
///   * every compiled+supported vectorized backend vs the scalar reference,
///     kernel by kernel, on fuzzed word arrays (empty, all-ones, sparse,
///     dense, unaligned lengths);
///   * the tail-word regression: bitset lengths ±1 around word boundaries
///     (63/64/65, 127/128/129) through the DynamicBitset/PresenceIndex entry
///     points, where extraction, popcounts and the column folds must treat
///     the final partial word identically on every backend;
///   * end-to-end: operators + Algorithm-2 aggregation with the backend
///     forced, at 1/2/7/16 threads, bit-identical to scalar at 1 thread.
///
/// Runs under the `sanitize` ctest label, so TSan checks the backend switch
/// and the parallel chunked kernel calls, and ASan (full-suite job) checks
/// that no kernel over-reads a heap-exact tail word.

namespace graphtempo {
namespace {

using testing::BuildRandomGraph;

constexpr std::size_t kThreadCounts[] = {1, 2, 7, 16};

class BackendTest : public ::testing::Test {
 protected:
  void TearDown() override {
    // Tests force backends process-wide; always restore auto dispatch.
    ASSERT_TRUE(accel::SetActiveBackend("auto"));
    SetParallelism(1);
  }
};

std::vector<const accel::KernelBackend*> VectorizedBackends() {
  std::vector<const accel::KernelBackend*> backends;
  for (const accel::BackendInfo& info : accel::ListBackends()) {
    if (std::string(info.name) == "scalar" || !info.compiled || !info.supported) {
      continue;
    }
    const accel::KernelBackend* backend = accel::FindBackend(info.name);
    EXPECT_NE(backend, nullptr) << info.name;
    if (backend != nullptr) backends.push_back(backend);
  }
  return backends;
}

std::uint64_t RandomWord(datagen::Pcg32& rng) {
  return (static_cast<std::uint64_t>(rng.Next()) << 32) | rng.Next();
}

enum class Pattern { kZero, kOnes, kSparse, kDense, kRandom };

std::vector<std::uint64_t> MakeWords(datagen::Pcg32& rng, std::size_t count,
                                     Pattern pattern) {
  std::vector<std::uint64_t> words(count, 0);
  for (std::uint64_t& word : words) {
    switch (pattern) {
      case Pattern::kZero:
        break;
      case Pattern::kOnes:
        word = ~std::uint64_t{0};
        break;
      case Pattern::kSparse:
        if (rng.NextBool(0.3)) word = std::uint64_t{1} << rng.NextBelow(64);
        break;
      case Pattern::kDense:
        word = RandomWord(rng) | RandomWord(rng);
        break;
      case Pattern::kRandom:
        word = RandomWord(rng);
        break;
    }
  }
  return words;
}

constexpr Pattern kPatterns[] = {Pattern::kZero, Pattern::kOnes, Pattern::kSparse,
                                 Pattern::kDense, Pattern::kRandom};

/// Word counts straddling every vector width in play: 256-bit = 4 words,
/// 512-bit = 8, the AVX2 popcount block = 16, plus empty and odd lengths.
constexpr std::size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9,
                                       15, 16, 17, 31, 32, 33, 100, 1000};

TEST_F(BackendTest, ListContainsScalarAndReportsActive) {
  std::vector<accel::BackendInfo> backends = accel::ListBackends();
  bool has_scalar = false;
  for (const accel::BackendInfo& info : backends) {
    if (std::string(info.name) == "scalar") {
      has_scalar = true;
      EXPECT_TRUE(info.compiled);
      EXPECT_TRUE(info.supported);
    }
  }
  EXPECT_TRUE(has_scalar);
  // The active backend is always one of the listed, compiled, supported ones.
  const std::string active = accel::ActiveBackendName();
  bool listed = false;
  for (const accel::BackendInfo& info : backends) {
    if (active == info.name) listed = info.compiled && info.supported;
  }
  EXPECT_TRUE(listed) << active;
}

TEST_F(BackendTest, SetActiveBackendRejectsUnknownNames) {
  const std::string before = accel::ActiveBackendName();
  std::string error;
  EXPECT_FALSE(accel::SetActiveBackend("neon", &error));
  EXPECT_NE(error.find("unknown backend"), std::string::npos) << error;
  // A failed set leaves the active backend unchanged.
  EXPECT_EQ(before, accel::ActiveBackendName());
  EXPECT_TRUE(accel::SetActiveBackend("scalar", &error)) << error;
  EXPECT_STREQ(accel::ActiveBackendName(), "scalar");
  EXPECT_TRUE(accel::SetActiveBackend("auto", &error)) << error;
}

TEST_F(BackendTest, DifferentialFuzzAgainstScalar) {
  const accel::KernelBackend& scalar = accel::ScalarBackend();
  datagen::Pcg32 rng(20260808);
  for (const accel::KernelBackend* backend : VectorizedBackends()) {
    SCOPED_TRACE(backend->name);
    for (std::size_t words : kWordCounts) {
      for (Pattern pa : kPatterns) {
        for (Pattern pb : kPatterns) {
          std::vector<std::uint64_t> a = MakeWords(rng, words, pa);
          std::vector<std::uint64_t> b = MakeWords(rng, words, pb);
          SCOPED_TRACE(std::to_string(words) + " words, patterns " +
                       std::to_string(static_cast<int>(pa)) + "/" +
                       std::to_string(static_cast<int>(pb)));

          // In-place range ops.
          std::vector<std::uint64_t> want = a;
          std::vector<std::uint64_t> got = a;
          scalar.range_or(want.data(), b.data(), words);
          backend->range_or(got.data(), b.data(), words);
          EXPECT_EQ(want, got) << "range_or";

          want = a;
          got = a;
          scalar.range_and(want.data(), b.data(), words);
          backend->range_and(got.data(), b.data(), words);
          EXPECT_EQ(want, got) << "range_and";

          want = a;
          got = a;
          scalar.range_andnot(want.data(), b.data(), words);
          backend->range_andnot(got.data(), b.data(), words);
          EXPECT_EQ(want, got) << "range_andnot";

          // Fused folds, fresh destination and aliased (out == a).
          std::vector<std::uint64_t> fold_want(words, 0xFEFEFEFEFEFEFEFEull);
          std::vector<std::uint64_t> fold_got(words, 0xABABABABABABABABull);
          scalar.fold_or(a.data(), b.data(), fold_want.data(), words);
          backend->fold_or(a.data(), b.data(), fold_got.data(), words);
          EXPECT_EQ(fold_want, fold_got) << "fold_or";
          want = a;
          got = a;
          scalar.fold_and(want.data(), b.data(), want.data(), words);
          backend->fold_and(got.data(), b.data(), got.data(), words);
          EXPECT_EQ(want, got) << "fold_and (aliased)";

          // Popcounts.
          EXPECT_EQ(scalar.popcount(a.data(), words), backend->popcount(a.data(), words))
              << "popcount";
          EXPECT_EQ(scalar.masked_popcount(a.data(), b.data(), words),
                    backend->masked_popcount(a.data(), b.data(), words))
              << "masked_popcount";

          // Extraction, full range and an interior sub-range (nonzero
          // word_begin exercises the absolute-index math).
          std::vector<std::uint32_t> idx_want, idx_got;
          scalar.extract_indices(a.data(), 0, words, idx_want);
          backend->extract_indices(a.data(), 0, words, idx_got);
          EXPECT_EQ(idx_want, idx_got) << "extract_indices";
          if (words >= 3) {
            idx_want.clear();
            idx_got.clear();
            scalar.extract_indices(a.data(), 1, words - 1, idx_want);
            backend->extract_indices(a.data(), 1, words - 1, idx_got);
            EXPECT_EQ(idx_want, idx_got) << "extract_indices (sub-range)";
          }
        }
      }
    }
  }
}

/// The tail-word regression of the bugfix satellite: lengths ±1 around word
/// boundaries, driven through the public DynamicBitset/PresenceIndex entry
/// points with the backend forced process-wide. Every backend must treat
/// the final partial word identically — the padding bits stay zero, so
/// Count/extract/ops agree bit-for-bit with scalar.
TEST_F(BackendTest, TailWordBoundaryRegression) {
  datagen::Pcg32 rng(7);
  for (std::size_t bits : {63u, 64u, 65u, 127u, 128u, 129u}) {
    // Three shapes: all-ones (every padding bit would corrupt Count if
    // leaked), random, and only the last bit set.
    for (int shape = 0; shape < 3; ++shape) {
      DynamicBitset base_a(bits);
      DynamicBitset base_b(bits);
      if (shape == 0) {
        base_a.SetAll();
        base_b.SetAll();
      } else if (shape == 1) {
        for (std::size_t i = 0; i < bits; ++i) {
          if (rng.NextBool(0.5)) base_a.Set(i);
          if (rng.NextBool(0.5)) base_b.Set(i);
        }
      } else {
        base_a.Set(bits - 1);
        base_b.Set(bits - 1);
      }

      ASSERT_TRUE(accel::SetActiveBackend("scalar"));
      const std::size_t count_ref = base_a.Count();
      const std::vector<std::uint32_t> indices_ref = base_a.ToIndices();
      const DynamicBitset and_ref = base_a & base_b;
      const DynamicBitset or_ref = base_a | base_b;
      const DynamicBitset diff_ref = base_a - base_b;

      // A presence index over `bits` entities with the two sets as its
      // columns, built afresh under each backend so that its fold tables are
      // that backend's.
      DynamicBitset both_times(2);
      both_times.SetAll();
      auto make_index = [&] {
        PresenceIndex index(2);
        index.AddEntities(bits);
        base_a.ForEachSetBit([&](std::size_t i) { index.Set(i, 0); });
        base_b.ForEachSetBit([&](std::size_t i) { index.Set(i, 1); });
        return index;
      };
      const std::size_t appearances_ref = count_ref + base_b.Count();

      for (const accel::KernelBackend* backend : VectorizedBackends()) {
        SCOPED_TRACE(std::string(backend->name) + " bits=" + std::to_string(bits) +
                     " shape=" + std::to_string(shape));
        ASSERT_TRUE(accel::SetActiveBackend(backend->name));
        EXPECT_EQ(base_a.Count(), count_ref);
        EXPECT_EQ(base_a.ToIndices(), indices_ref);
        EXPECT_EQ(base_a & base_b, and_ref);
        EXPECT_EQ(base_a | base_b, or_ref);
        EXPECT_EQ(base_a - base_b, diff_ref);
        const PresenceIndex index = make_index();
        EXPECT_EQ(index.UnionOver(both_times), or_ref);
        EXPECT_EQ(index.IntersectionOver(both_times), and_ref);
        EXPECT_EQ(index.CountAt(0), count_ref);
        EXPECT_EQ(index.AppearancesOver(both_times), appearances_ref);
      }
      ASSERT_TRUE(accel::SetActiveBackend("auto"));
    }
  }
}

/// End-to-end: the four operators and Algorithm-2 aggregation produce
/// bit-identical results with any backend forced, at any thread count.
TEST_F(BackendTest, OperatorsAndAggregationEquivalence) {
  TemporalGraph graph = BuildRandomGraph(/*seed=*/99, /*num_nodes=*/220,
                                         /*num_times=*/12);
  const std::size_t n = graph.num_times();
  IntervalSet t1 = IntervalSet::Range(n, 1, 6);
  IntervalSet t2 = IntervalSet::Range(n, 4, 10);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  AggregationOptions all_options;
  all_options.semantics = AggregationSemantics::kAll;

  ASSERT_TRUE(accel::SetActiveBackend("scalar"));
  SetParallelism(1);
  const GraphView union_ref = UnionOp(graph, t1, t2);
  const GraphView inter_ref = IntersectionOp(graph, t1, t2);
  const GraphView diff_ref = DifferenceOp(graph, t1, t2);
  const GraphView project_ref = Project(graph, t1);
  const AggregateGraph agg_dist_ref = Aggregate(graph, union_ref, attrs);
  const AggregateGraph agg_all_ref = Aggregate(graph, union_ref, attrs, all_options);

  auto expect_same_view = [](const GraphView& got, const GraphView& want) {
    EXPECT_EQ(got.nodes, want.nodes);
    EXPECT_EQ(got.edges, want.edges);
    EXPECT_EQ(got.times.bits(), want.times.bits());
  };

  for (const accel::KernelBackend* backend : VectorizedBackends()) {
    ASSERT_TRUE(accel::SetActiveBackend(backend->name));
    for (std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(std::string(backend->name) + " @ " + std::to_string(threads) +
                   " threads");
      SetParallelism(threads);
      expect_same_view(UnionOp(graph, t1, t2), union_ref);
      expect_same_view(IntersectionOp(graph, t1, t2), inter_ref);
      expect_same_view(DifferenceOp(graph, t1, t2), diff_ref);
      expect_same_view(Project(graph, t1), project_ref);
      EXPECT_EQ(Aggregate(graph, union_ref, attrs), agg_dist_ref);
      EXPECT_EQ(Aggregate(graph, union_ref, attrs, all_options), agg_all_ref);
    }
    SetParallelism(1);
  }
}

}  // namespace
}  // namespace graphtempo
