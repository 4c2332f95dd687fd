#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "core/aggregation.h"
#include "core/operators.h"
#include "test_graphs.h"

namespace graphtempo {
namespace {

using testing::BuildRandomGraph;

/// Restores the process-wide parallelism after each test so the rest of the
/// suite is unaffected.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelism(1); }
};

TEST_F(ParallelTest, DefaultIsSerial) {
  EXPECT_EQ(GetParallelism(), 1u);
  ParallelPartition partition(100000);
  EXPECT_EQ(partition.num_chunks(), 1u);
}

TEST_F(ParallelTest, SetAndGet) {
  SetParallelism(4);
  EXPECT_EQ(GetParallelism(), 4u);
}

TEST_F(ParallelTest, ChunksCoverRangeExactlyOnce) {
  SetParallelism(4);
  for (std::size_t count : {0u, 1u, 63u, 64u, 100u, 4096u, 10000u, 65537u}) {
    ParallelPartition partition(count, /*min_per_chunk=*/16, /*alignment=*/64);
    std::size_t covered = 0;
    std::size_t previous_end = 0;
    for (std::size_t c = 0; c < partition.num_chunks(); ++c) {
      auto [begin, end] = partition.chunk(c);
      EXPECT_EQ(begin, previous_end) << "gap before chunk " << c;
      EXPECT_LE(begin, end);
      covered += end - begin;
      previous_end = end;
    }
    EXPECT_EQ(previous_end, count);
    EXPECT_EQ(covered, count);
  }
}

TEST_F(ParallelTest, ChunkBoundariesAreAligned) {
  SetParallelism(8);
  ParallelPartition partition(100000, /*min_per_chunk=*/16, /*alignment=*/64);
  ASSERT_GT(partition.num_chunks(), 1u);
  for (std::size_t c = 1; c < partition.num_chunks(); ++c) {
    EXPECT_EQ(partition.chunk(c).first % 64, 0u) << "chunk " << c;
  }
}

TEST_F(ParallelTest, SmallInputsStaySerial) {
  SetParallelism(8);
  ParallelPartition partition(100, /*min_per_chunk=*/2048);
  EXPECT_EQ(partition.num_chunks(), 1u);
}

TEST_F(ParallelTest, RunVisitsEveryIndexOnce) {
  SetParallelism(4);
  const std::size_t count = 50000;
  std::vector<std::atomic<int>> visits(count);
  ParallelPartition partition(count, /*min_per_chunk=*/16);
  EXPECT_GT(partition.num_chunks(), 1u);
  partition.Run([&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, ParallelForSumsCorrectly) {
  SetParallelism(3);
  const std::size_t count = 100000;
  std::atomic<std::uint64_t> total{0};
  ParallelFor(count, [&](std::size_t, std::size_t begin, std::size_t end) {
    std::uint64_t local = 0;
    for (std::size_t i = begin; i < end; ++i) local += i;
    total.fetch_add(local);
  });
  EXPECT_EQ(total.load(), static_cast<std::uint64_t>(count) * (count - 1) / 2);
}

// Regression: under the old single-job hand-off slot, a Run issued from
// *inside* a worker chunk overwrote the owner's job pointer — nested scans
// either deadlocked (owner waiting on a job nobody completes) or corrupted
// the outer job's chunk accounting. The queue-based pool must execute every
// chunk of every nesting level exactly once.
TEST_F(ParallelTest, NestedRunFromWorkerChunkExecutesEveryChunkOnce) {
  SetParallelism(4);
  const std::size_t outer_count = 32;
  const std::size_t inner_count = 2048;
  std::vector<std::atomic<int>> outer_visits(outer_count);
  std::atomic<std::uint64_t> inner_total{0};

  ParallelPartition outer(outer_count, /*min_per_chunk=*/1, /*alignment=*/1);
  ASSERT_GT(outer.num_chunks(), 1u);
  outer.Run([&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      outer_visits[i].fetch_add(1);
      ParallelPartition inner(inner_count, /*min_per_chunk=*/16, /*alignment=*/1);
      inner.Run([&](std::size_t, std::size_t ib, std::size_t ie) {
        inner_total.fetch_add(ie - ib, std::memory_order_relaxed);
      });
    }
  });

  for (std::size_t i = 0; i < outer_count; ++i) {
    ASSERT_EQ(outer_visits[i].load(), 1) << "outer index " << i;
  }
  EXPECT_EQ(inner_total.load(),
            static_cast<std::uint64_t>(outer_count) * inner_count);
}

// Regression: two user threads issuing Run concurrently used to race on the
// single hand-off slot — the second owner silently replaced the first job and
// the first owner could block forever or miss chunks. With per-job queues
// both owners must see all their own chunks executed exactly once.
TEST_F(ParallelTest, ConcurrentOwnersEachCompleteTheirOwnJob) {
  SetParallelism(4);
  constexpr std::size_t kOwners = 4;
  constexpr std::size_t kRounds = 25;
  constexpr std::size_t kCount = 4096;
  std::atomic<std::uint64_t> totals[kOwners] = {};

  std::vector<std::thread> owners;
  for (std::size_t o = 0; o < kOwners; ++o) {
    owners.emplace_back([&, o] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        ParallelPartition partition(kCount, /*min_per_chunk=*/16, /*alignment=*/1);
        partition.Run([&](std::size_t, std::size_t begin, std::size_t end) {
          std::uint64_t local = 0;
          for (std::size_t i = begin; i < end; ++i) local += i;
          totals[o].fetch_add(local, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& owner : owners) owner.join();

  const std::uint64_t per_round =
      static_cast<std::uint64_t>(kCount) * (kCount - 1) / 2;
  for (std::size_t o = 0; o < kOwners; ++o) {
    EXPECT_EQ(totals[o].load(), per_round * kRounds) << "owner " << o;
  }
}

// Regression: a worker used to look the job up again after its wait
// predicate had found one. An owner draining its own job lock-free could
// exhaust it in between, and the worker then ran a null job. Many owners
// issuing two-chunk jobs with empty bodies keep that window hot.
TEST_F(ParallelTest, TinyJobsFromManyOwnersAllComplete) {
  SetParallelism(4);
  constexpr std::size_t kOwners = 8;
  constexpr std::size_t kRounds = 50000;
  std::atomic<std::uint64_t> chunks{0};

  std::vector<std::thread> owners;
  for (std::size_t o = 0; o < kOwners; ++o) {
    owners.emplace_back([&] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        ParallelPartition partition(2, /*min_per_chunk=*/1, /*alignment=*/1);
        partition.Run([&](std::size_t, std::size_t, std::size_t) {
          chunks.fetch_add(1, std::memory_order_relaxed);
        });
      }
    });
  }
  for (auto& owner : owners) owner.join();
  EXPECT_EQ(chunks.load(), kOwners * kRounds * 2);
}

// Pool counters: a multi-chunk dispatch bumps jobs by 1 and chunks by the
// chunk count; single-chunk partitions run inline and do not count.
TEST_F(ParallelTest, PoolStatsCountJobsAndChunks) {
  SetParallelism(4);
  ResetPoolStats();
  ParallelPartition multi(1000, /*min_per_chunk=*/16, /*alignment=*/1);
  ASSERT_GT(multi.num_chunks(), 1u);
  multi.Run([](std::size_t, std::size_t, std::size_t) {});
  ParallelPartition single(10, /*min_per_chunk=*/2048);
  ASSERT_EQ(single.num_chunks(), 1u);
  single.Run([](std::size_t, std::size_t, std::size_t) {});
  PoolStats stats = GetPoolStats();
  EXPECT_EQ(stats.jobs, 1u);
  EXPECT_EQ(stats.chunks, multi.num_chunks());
  ResetPoolStats();
  EXPECT_EQ(GetPoolStats().jobs, 0u);
  EXPECT_EQ(GetPoolStats().chunks, 0u);
}

// The operators must produce bit-identical views at any thread count.
TEST_F(ParallelTest, OperatorsAreDeterministicAcrossThreadCounts) {
  TemporalGraph graph = BuildRandomGraph(91, 3000, 10, 0.4, 3, 4, 0.02);
  IntervalSet a = IntervalSet::Range(10, 0, 4);
  IntervalSet b = IntervalSet::Range(10, 5, 9);

  SetParallelism(1);
  GraphView union_serial = UnionOp(graph, a, b);
  GraphView inter_serial = IntersectionOp(graph, a, b);
  GraphView diff_serial = DifferenceOp(graph, a, b);
  GraphView project_serial = Project(graph, a);

  for (std::size_t threads : {2u, 4u, 7u}) {
    SetParallelism(threads);
    // Force multiple chunks even for this modest graph.
    GraphView union_parallel = UnionOp(graph, a, b);
    EXPECT_EQ(union_parallel.nodes, union_serial.nodes) << threads << " threads";
    EXPECT_EQ(union_parallel.edges, union_serial.edges) << threads << " threads";
    GraphView inter_parallel = IntersectionOp(graph, a, b);
    EXPECT_EQ(inter_parallel.nodes, inter_serial.nodes);
    EXPECT_EQ(inter_parallel.edges, inter_serial.edges);
    GraphView diff_parallel = DifferenceOp(graph, a, b);
    EXPECT_EQ(diff_parallel.nodes, diff_serial.nodes);
    EXPECT_EQ(diff_parallel.edges, diff_serial.edges);
    GraphView project_parallel = Project(graph, a);
    EXPECT_EQ(project_parallel.nodes, project_serial.nodes);
    EXPECT_EQ(project_parallel.edges, project_serial.edges);
  }
}

TEST_F(ParallelTest, AggregationUnaffectedByParallelOperators) {
  TemporalGraph graph = BuildRandomGraph(92, 2000, 8, 0.4, 3, 4, 0.03);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  IntervalSet a = IntervalSet::Range(8, 0, 3);
  IntervalSet b = IntervalSet::Range(8, 4, 7);

  SetParallelism(1);
  AggregateGraph serial = Aggregate(graph, UnionOp(graph, a, b), attrs,
                                    AggregationSemantics::kAll);
  SetParallelism(6);
  AggregateGraph parallel = Aggregate(graph, UnionOp(graph, a, b), attrs,
                                      AggregationSemantics::kAll);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelDeath, ZeroThreadsAborts) { EXPECT_DEATH(SetParallelism(0), "at least 1"); }

}  // namespace
}  // namespace graphtempo
