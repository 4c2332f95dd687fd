/// Differential + concurrency suite for `QueryEngine::ExecuteBatch`
/// (docs/ENGINE.md §Batch execution).
///
/// Pinned contracts:
///   * a batch is *bit-identical* to executing each item alone, for every
///     query kind (aggregate / evolution / explore) and at every thread
///     count the differential matrix uses (1, 2, 7, 16);
///   * equivalent cacheable specs are computed once and fanned out, and the
///     merged items carry full attribution (batched, cache=hit, the executed
///     item's route and planner — the slow-query record requires them);
///   * the shared `FoldCache` memoizes (index, kind, mask) folds exactly
///     once and reports hits/misses;
///   * the sharded result cache survives concurrent Execute/ExecuteBatch
///     readers racing a ClearCache/Refresh writer (the TSan job runs this
///     suite under -DGT_SANITIZE=thread via the `sanitize` label).

#include "engine/batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "core/aggregation.h"
#include "engine/engine.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "test_graphs.h"
#include "util/parallel.h"

namespace graphtempo {
namespace {

using engine::FoldCache;
using engine::PlannerMode;
using engine::QueryEngine;
using engine::QueryKind;
using engine::QueryResult;
using engine::QuerySpec;
using engine::TemporalOperatorKind;
using testing::BuildRandomGraph;

/// Kind-aware equality. ExplorationResult has no operator== of its own, but
/// its members compare exactly.
bool ResultsEqual(const QueryResult& a, const QueryResult& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case QueryKind::kAggregate:
      return a.aggregate() == b.aggregate();
    case QueryKind::kEvolution:
      return a.evolution() == b.evolution();
    case QueryKind::kExplore:
      return a.exploration().pairs == b.exploration().pairs &&
             a.exploration().evaluations == b.exploration().evaluations;
  }
  return false;
}

/// A batch worth of overlap: duplicated specs (merge fodder), distinct specs
/// folding the same intervals (fold-sharing fodder), and the non-aggregate
/// kinds, which must ride through a batch unchanged.
std::vector<QuerySpec> BatchCorpus(const TemporalGraph& graph,
                                   const std::vector<AttrRef>& base) {
  const std::size_t n = graph.num_times();
  const TimeId mid = static_cast<TimeId>(n / 2);
  const TimeId last = static_cast<TimeId>(n - 1);
  const IntervalSet empty(n);
  using K = TemporalOperatorKind;

  std::vector<QuerySpec> corpus;
  auto aggregate = [&](K op, IntervalSet t1, IntervalSet t2,
                       std::vector<AttrRef> attrs, AggregationSemantics semantics) {
    QuerySpec spec;
    spec.op = op;
    spec.t1 = std::move(t1);
    spec.t2 = std::move(t2);
    spec.attrs = std::move(attrs);
    spec.semantics = semantics;
    corpus.push_back(std::move(spec));
  };

  // Two equivalent unions (identical fingerprints → merged)...
  aggregate(K::kUnion, IntervalSet::Range(n, 0, mid), empty, base,
            AggregationSemantics::kAll);
  aggregate(K::kUnion, IntervalSet::Range(n, 0, mid), empty, base,
            AggregationSemantics::kAll);
  // ...and an intersection over the same interval against a point: its two
  // per-side union folds reuse the union's fold of [0..mid] from the cache.
  aggregate(K::kIntersection, IntervalSet::Range(n, 0, mid), IntervalSet::Point(n, 0),
            base, AggregationSemantics::kAll);
  // Distinct semantics and operators (never merged with the above).
  aggregate(K::kUnion, IntervalSet::Range(n, 0, mid), empty, base,
            AggregationSemantics::kDistinct);
  aggregate(K::kProject, IntervalSet::Range(n, 0, mid), empty, {base[0]},
            AggregationSemantics::kAll);
  aggregate(K::kDifference, IntervalSet::Point(n, last), IntervalSet::Point(n, 0),
            base, AggregationSemantics::kAll);

  // Evolution between the two halves, duplicated (merge fodder again).
  QuerySpec evolution;
  evolution.kind = QueryKind::kEvolution;
  evolution.t1 = IntervalSet::Range(n, 0, mid);
  evolution.t2 = IntervalSet::Range(n, mid, last);
  evolution.attrs = base;
  corpus.push_back(evolution);
  corpus.push_back(evolution);

  // One exploration sweep (edges, no tuple filter, k = 1).
  QuerySpec explore;
  explore.kind = QueryKind::kExplore;
  explore.t1 = IntervalSet::All(n);
  explore.explore.event = EventType::kGrowth;
  explore.explore.semantics = ExtensionSemantics::kUnion;
  explore.explore.reference = ReferenceEnd::kNew;
  explore.explore.selector.kind = EntitySelector::Kind::kEdges;
  explore.explore.k = 1;
  corpus.push_back(explore);

  return corpus;
}

class BatchTest : public ::testing::Test {
 protected:
  BatchTest()
      : graph_(BuildRandomGraph(/*seed=*/11, /*num_nodes=*/40, /*num_times=*/8)),
        base_(ResolveAttributes(graph_, {"color", "level"})) {}

  ~BatchTest() override { SetParallelism(1); }

  /// Serial ground truth: each spec executed alone on a fresh engine (same
  /// config), so no batch-level sharing can leak into the reference.
  std::vector<QueryResult> SerialReferences(const std::vector<QuerySpec>& corpus) {
    QueryEngine engine(&graph_);
    engine.EnableMaterialization(base_);
    std::vector<QueryResult> references;
    references.reserve(corpus.size());
    for (const QuerySpec& spec : corpus) references.push_back(engine.ExecuteResult(spec));
    return references;
  }

  TemporalGraph graph_;
  std::vector<AttrRef> base_;
};

TEST_F(BatchTest, BatchMatchesSerialAtEveryThreadCount) {
  const std::vector<QuerySpec> corpus = BatchCorpus(graph_, base_);
  SetParallelism(1);
  const std::vector<QueryResult> references = SerialReferences(corpus);

  const std::size_t thread_counts[] = {1, 2, 7, 16};
  for (std::size_t threads : thread_counts) {
    SetParallelism(threads);
    QueryEngine engine(&graph_);
    engine.EnableMaterialization(base_);
    std::vector<QueryEngine::BatchItem> items;
    items.reserve(corpus.size());
    for (const QuerySpec& spec : corpus) items.push_back({&spec, nullptr});
    const std::vector<QueryResult> results = engine.ExecuteBatch(items);
    ASSERT_EQ(results.size(), corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_TRUE(ResultsEqual(results[i], references[i]))
          << "batch diverged from serial at spec " << i << " ("
          << corpus[i].ToString(graph_) << ") with " << threads << " threads";
    }
  }
}

TEST_F(BatchTest, BatchIsIdenticalUnderBothPlanners) {
  const std::vector<QuerySpec> corpus = BatchCorpus(graph_, base_);
  SetParallelism(1);
  const std::vector<QueryResult> references = SerialReferences(corpus);

  for (PlannerMode mode : {PlannerMode::kRule, PlannerMode::kCost}) {
    QueryEngine::Config config;
    config.planner = mode;
    QueryEngine engine(&graph_, config);
    engine.EnableMaterialization(base_);
    std::vector<QueryEngine::BatchItem> items;
    for (const QuerySpec& spec : corpus) items.push_back({&spec, nullptr});
    const std::vector<QueryResult> results = engine.ExecuteBatch(items);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_TRUE(ResultsEqual(results[i], references[i]))
          << "planner=" << engine::PlannerModeName(mode) << " spec " << i;
    }
  }
}

TEST_F(BatchTest, EquivalentSpecsMergeWithFullAttribution) {
  QuerySpec spec;
  spec.op = TemporalOperatorKind::kUnion;
  spec.t1 = IntervalSet::Range(graph_.num_times(), 0, 4);
  spec.t2 = IntervalSet(graph_.num_times());
  spec.attrs = base_;
  spec.semantics = AggregationSemantics::kAll;
  const QuerySpec duplicate = spec;

  QueryEngine engine(&graph_);
  engine.EnableMaterialization(base_);

  obs::RequestContext first_ctx;
  obs::RequestContext second_ctx;
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  const std::vector<QueryEngine::BatchItem> items = {{&spec, &first_ctx},
                                                     {&duplicate, &second_ctx}};
  const std::vector<QueryResult> results = engine.ExecuteBatch(items);
  const obs::MetricsSnapshot after = obs::Registry::Instance().Snapshot();

  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(ResultsEqual(results[0], results[1]));
  EXPECT_EQ(after.CounterValue("engine/batch_merged") -
                before.CounterValue("engine/batch_merged"),
            1u);

  // The merged item is attributed as a batched cache hit carrying the
  // executed item's route and planner (the slow-query record needs both).
  EXPECT_TRUE(second_ctx.batched.load());
  EXPECT_STREQ(second_ctx.cache.load(), "hit");
  EXPECT_EQ(second_ctx.fingerprint.load(), duplicate.Fingerprint());
  EXPECT_STREQ(second_ctx.route.load(), first_ctx.route.load());
  EXPECT_STREQ(second_ctx.planner.load(), first_ctx.planner.load());
  EXPECT_NE(std::string(second_ctx.route.load()), "");
  EXPECT_NE(std::string(second_ctx.planner.load()), "");
}

TEST_F(BatchTest, FoldCacheMemoizesPerIndexKindAndMask) {
  FoldCache folds;
  const PresenceIndex& nodes = graph_.node_presence_index();
  const PresenceIndex& edges = graph_.edge_presence_index();
  const IntervalSet interval = IntervalSet::Range(graph_.num_times(), 0, 3);
  const IntervalSet same_members = IntervalSet::Range(graph_.num_times(), 0, 3);
  const IntervalSet other = IntervalSet::Range(graph_.num_times(), 2, 5);

  const DynamicBitset& first = folds.UnionFold(nodes, interval.bits());
  EXPECT_EQ(folds.misses(), 1u);
  EXPECT_EQ(first, nodes.UnionOver(interval.bits()));

  // Same (index, kind, members) — a hit, even from a distinct IntervalSet.
  const DynamicBitset& second = folds.UnionFold(nodes, same_members.bits());
  EXPECT_EQ(folds.hits(), 1u);
  EXPECT_EQ(&first, &second);  // handed-out storage is stable

  // Different fold kind, index or mask — each its own entry.
  folds.IntersectionFold(nodes, interval.bits());
  folds.UnionFold(edges, interval.bits());
  folds.UnionFold(nodes, other.bits());
  EXPECT_EQ(folds.misses(), 4u);
  EXPECT_EQ(folds.hits(), 1u);
  EXPECT_EQ(folds.IntersectionFold(nodes, interval.bits()),
            nodes.IntersectionOver(interval.bits()));
  EXPECT_EQ(folds.hits(), 2u);
}

TEST_F(BatchTest, FoldCacheNormalizesTrailingZeroWords) {
  FoldCache folds;
  const PresenceIndex& nodes = graph_.node_presence_index();
  const std::size_t n = graph_.num_times();
  const IntervalSet interval = IntervalSet::Range(n, 0, 3);

  const DynamicBitset& first = folds.UnionFold(nodes, interval.bits());
  EXPECT_EQ(folds.misses(), 1u);

  // Same members, wider universe: the mask carries extra all-zero words, as
  // a mask sized to a larger domain does when the fold's points fit a
  // prefix. Trailing zero words must not change the cache key — before the
  // trim this was a miss, and the recompute passed the over-wide mask to
  // UnionOver, which aborts on its time-domain size check.
  DynamicBitset wide(n + 128);
  interval.bits().ForEachSetBit([&](std::size_t t) { wide.Set(t); });
  const DynamicBitset& second = folds.UnionFold(nodes, wide);
  EXPECT_EQ(folds.hits(), 1u);
  EXPECT_EQ(folds.misses(), 1u);
  EXPECT_EQ(&first, &second);

  // The intersection fold of the same members is its own entry (kind is part
  // of the key), and it normalizes the same way.
  folds.IntersectionFold(nodes, interval.bits());
  EXPECT_EQ(folds.misses(), 2u);
  const DynamicBitset& inter = folds.IntersectionFold(nodes, wide);
  EXPECT_EQ(folds.hits(), 2u);
  EXPECT_EQ(inter, nodes.IntersectionOver(interval.bits()));
}

TEST_F(BatchTest, BatchSharesFoldsAcrossDistinctSpecs) {
  // union [0..4] and intersection([0..4], {0}) share the UnionFold of [0..4]
  // on both presence indexes; executed alone neither would hit anything.
  QuerySpec union_spec;
  union_spec.op = TemporalOperatorKind::kUnion;
  union_spec.t1 = IntervalSet::Range(graph_.num_times(), 0, 4);
  union_spec.t2 = IntervalSet(graph_.num_times());
  union_spec.attrs = base_;
  union_spec.semantics = AggregationSemantics::kDistinct;  // not derivable → direct

  QuerySpec inter_spec = union_spec;
  inter_spec.op = TemporalOperatorKind::kIntersection;
  inter_spec.t2 = IntervalSet::Point(graph_.num_times(), 0);

  QueryEngine engine(&graph_);  // no materialization: both run direct kernels
  obs::RequestContext union_ctx;
  obs::RequestContext inter_ctx;
  const std::vector<QueryEngine::BatchItem> items = {{&union_spec, &union_ctx},
                                                     {&inter_spec, &inter_ctx}};
  engine.ExecuteBatch(items);

  EXPECT_EQ(union_ctx.shared_fold_hits.load(), 0u);  // first execution seeds
  EXPECT_GT(union_ctx.shared_fold_misses.load(), 0u);
  EXPECT_GT(inter_ctx.shared_fold_hits.load(), 0u);  // second one reuses
}

/// The sharded result cache under contention: reader threads hammer
/// Execute/ExecuteBatch on overlapping specs while a writer cycles
/// ClearCache (exclusive lock) and Refresh. Answers must stay bit-identical
/// throughout — ClearCache only forgets, it never corrupts. Run under TSan
/// via the `sanitize` label.
TEST_F(BatchTest, ShardedCacheSurvivesConcurrentReadersAndCacheClears) {
  const std::vector<QuerySpec> corpus = BatchCorpus(graph_, base_);
  SetParallelism(1);
  const std::vector<QueryResult> references = SerialReferences(corpus);

  QueryEngine engine(&graph_);
  engine.EnableMaterialization(base_);

  constexpr int kReaders = 6;
  constexpr int kRounds = 40;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> divergences{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < kRounds; ++round) {
        if (r % 2 == 0) {
          // Batched reader: the whole corpus in one gather window.
          std::vector<QueryEngine::BatchItem> items;
          for (const QuerySpec& spec : corpus) items.push_back({&spec, nullptr});
          const std::vector<QueryResult> results = engine.ExecuteBatch(items);
          for (std::size_t i = 0; i < corpus.size(); ++i) {
            if (!ResultsEqual(results[i], references[i])) divergences.fetch_add(1);
          }
        } else {
          // Point reader: individual executions, rotating phase per thread.
          const std::size_t i = (round + r) % corpus.size();
          if (!ResultsEqual(engine.ExecuteResult(corpus[i]), references[i])) {
            divergences.fetch_add(1);
          }
        }
      }
    });
  }

  std::thread writer([&] {
    while (!stop.load()) {
      engine.ClearCache();
      engine.Refresh();  // no-op refresh still takes the exclusive lock
      std::this_thread::yield();
    }
  });

  for (std::thread& reader : readers) reader.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(divergences.load(), 0u);
}

}  // namespace
}  // namespace graphtempo
