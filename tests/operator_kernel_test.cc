#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/operators.h"
#include "core/presence_index.h"
#include "core/stats.h"
#include "datagen/random.h"
#include "reference_impl.h"
#include "test_graphs.h"
#include "util/parallel.h"

/// \file
/// Randomized differential suite pinning the word-parallel kernel paths
/// (docs/KERNELS.md) against their entity-at-a-time references:
///
///   * the four temporal operators on the column-major PresenceIndex vs the
///     per-entity *RowScan references (reference_impl.h), which read
///     presence one (entity, time) at a time;
///   * the dense (packed-code flat array) aggregation grouping vs the
///     hash-map reference;
///   * the PresenceIndex sparse-table folds vs direct column folds.
///
/// Every comparison is repeated at 1, 2, 7 and 16 threads: the kernels'
/// determinism contract is bit-identical output at any thread count AND
/// bit-identical to the reference path.

namespace graphtempo {
namespace {

using testing::BuildRandomGraph;
using testing::DifferenceOpRowScan;
using testing::IntersectionOpRowScan;
using testing::ProjectRowScan;
using testing::UnionOpRowScan;

constexpr std::size_t kThreadCounts[] = {1, 2, 7, 16};

class OperatorKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelism(1); }
};

/// A random interval set: each point kept with probability ~1/2, with the
/// occasional degenerate shape (empty, single point, full domain, prefix run)
/// to hit the sparse-table edge cases.
IntervalSet RandomInterval(datagen::Pcg32& rng, std::size_t n) {
  switch (rng.NextBelow(8)) {
    case 0:
      return IntervalSet(n);  // empty
    case 1:
      return IntervalSet::Point(n, static_cast<TimeId>(rng.NextBelow(
                                       static_cast<std::uint32_t>(n))));
    case 2:
      return IntervalSet::All(n);
    case 3: {  // contiguous run
      TimeId a = static_cast<TimeId>(rng.NextBelow(static_cast<std::uint32_t>(n)));
      TimeId b = static_cast<TimeId>(rng.NextBelow(static_cast<std::uint32_t>(n)));
      return IntervalSet::Range(n, std::min(a, b), std::max(a, b));
    }
    default: {  // scattered
      IntervalSet set(n);
      for (TimeId t = 0; t < n; ++t) {
        if (rng.NextBool(0.5)) set.Add(t);
      }
      return set;
    }
  }
}

void ExpectSameView(const GraphView& kernel, const GraphView& reference,
                    const char* what, std::uint64_t seed, std::size_t threads) {
  EXPECT_EQ(kernel.nodes, reference.nodes)
      << what << " nodes, seed " << seed << ", " << threads << " threads";
  EXPECT_EQ(kernel.edges, reference.edges)
      << what << " edges, seed " << seed << ", " << threads << " threads";
  EXPECT_EQ(kernel.times, reference.times)
      << what << " times, seed " << seed << ", " << threads << " threads";
}

// --- Operators: kernel vs row scan ---------------------------------------------------

TEST_F(OperatorKernelTest, OperatorsMatchRowScanOnRandomGraphs) {
  struct Shape {
    std::size_t nodes, times;
    double presence_p, edge_p;
  };
  const Shape shapes[] = {
      {40, 3, 0.5, 0.3},    // tiny, dense in time
      {300, 9, 0.4, 0.05},  // medium
      {900, 17, 0.25, 0.01},  // sparse presence, non-power-of-two domain
  };
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Shape& shape = shapes[seed % 3];
    TemporalGraph graph =
        BuildRandomGraph(seed, shape.nodes, shape.times, shape.presence_p, 3, 4,
                         shape.edge_p);
    datagen::Pcg32 rng(seed * 7919);
    const std::size_t n = graph.num_times();
    for (int trial = 0; trial < 8; ++trial) {
      IntervalSet t1 = RandomInterval(rng, n);
      IntervalSet t2 = RandomInterval(rng, n);
      for (std::size_t threads : kThreadCounts) {
        SetParallelism(threads);
        if (!t1.Empty()) {
          ExpectSameView(Project(graph, t1), ProjectRowScan(graph, t1), "project",
                         seed, threads);
        }
        ExpectSameView(UnionOp(graph, t1, t2), UnionOpRowScan(graph, t1, t2),
                       "union", seed, threads);
        ExpectSameView(IntersectionOp(graph, t1, t2),
                       IntersectionOpRowScan(graph, t1, t2), "intersection", seed,
                       threads);
        ExpectSameView(DifferenceOp(graph, t1, t2),
                       DifferenceOpRowScan(graph, t1, t2), "difference", seed,
                       threads);
        ExpectSameView(DifferenceOp(graph, t2, t1),
                       DifferenceOpRowScan(graph, t2, t1), "difference-swapped",
                       seed, threads);
      }
    }
  }
}

TEST_F(OperatorKernelTest, OperatorsMatchRowScanOnPaperExample) {
  TemporalGraph graph = testing::BuildPaperGraph();
  const std::size_t n = graph.num_times();
  IntervalSet t01 = IntervalSet::Range(n, 0, 1);
  IntervalSet t2 = IntervalSet::Point(n, 2);
  ExpectSameView(Project(graph, t01), ProjectRowScan(graph, t01), "project", 0, 1);
  ExpectSameView(UnionOp(graph, t01, t2), UnionOpRowScan(graph, t01, t2), "union", 0, 1);
  ExpectSameView(IntersectionOp(graph, t01, t2), IntersectionOpRowScan(graph, t01, t2),
                 "intersection", 0, 1);
  ExpectSameView(DifferenceOp(graph, t01, t2), DifferenceOpRowScan(graph, t01, t2),
                 "shrinkage", 0, 1);
  ExpectSameView(DifferenceOp(graph, t2, t01), DifferenceOpRowScan(graph, t2, t01),
                 "growth", 0, 1);
}

/// A ring of `survivors` nodes present at both t0 and t1, plus `leavers`
/// nodes present only at t0. Ring edges (i, i + 1) exist only at t0, so
/// DifferenceOp(t0, t1) reaches every survivor through its first edges; with
/// `survivor_edges` false the t0-only edges join leavers alone instead.
TemporalGraph BuildSurvivorGraph(std::size_t survivors, std::size_t leavers,
                                 bool survivor_edges) {
  TemporalGraph graph({"t0", "t1"});
  for (std::size_t i = 0; i < survivors + leavers; ++i) {
    const NodeId n = graph.AddNode("n" + std::to_string(i));
    graph.SetNodePresent(n, 0);
    if (i < survivors) graph.SetNodePresent(n, 1);
  }
  auto edge_at_t0 = [&](std::size_t a, std::size_t b) {
    const EdgeId e = graph.GetOrAddEdge(static_cast<NodeId>(a), static_cast<NodeId>(b));
    graph.SetEdgePresent(e, 0);
  };
  if (survivor_edges) {
    for (std::size_t i = 0; i < survivors; ++i) edge_at_t0(i, (i + 1) % survivors);
  }
  for (std::size_t i = 0; i + 1 < leavers; ++i) {
    edge_at_t0(survivors + i, survivors + i + 1);
  }
  // A survivor pair still connected at t1: not a difference edge.
  const EdgeId stable = graph.GetOrAddEdge(0, 1);
  graph.SetEdgePresent(stable, 0);
  graph.SetEdgePresent(stable, 1);
  return graph;
}

TEST_F(OperatorKernelTest, DifferenceMarksEverySurvivorEarly) {
  // The survivor ring comes first among the difference edges: the endpoint
  // walk can stop after it, with the leaver chain still unread.
  const TemporalGraph graph = BuildSurvivorGraph(70, 500, /*survivor_edges=*/true);
  const IntervalSet t0 = IntervalSet::Point(2, 0);
  const IntervalSet t1 = IntervalSet::Point(2, 1);
  for (std::size_t threads : kThreadCounts) {
    SetParallelism(threads);
    const GraphView view = DifferenceOp(graph, t0, t1);
    ExpectSameView(view, DifferenceOpRowScan(graph, t0, t1), "all survivors marked", 0,
                   threads);
    EXPECT_EQ(view.nodes.size(), graph.num_nodes()) << threads << " threads";
  }
}

TEST_F(OperatorKernelTest, DifferenceWithNoSurvivorEndpoint) {
  // Survivors exist, but no difference edge touches one: only the leavers
  // join the view.
  const TemporalGraph graph = BuildSurvivorGraph(70, 500, /*survivor_edges=*/false);
  const IntervalSet t0 = IntervalSet::Point(2, 0);
  const IntervalSet t1 = IntervalSet::Point(2, 1);
  for (std::size_t threads : kThreadCounts) {
    SetParallelism(threads);
    const GraphView view = DifferenceOp(graph, t0, t1);
    ExpectSameView(view, DifferenceOpRowScan(graph, t0, t1), "no survivor endpoint", 0,
                   threads);
    EXPECT_EQ(view.nodes.size(), 500u) << threads << " threads";
    EXPECT_EQ(view.nodes.front(), NodeId{70}) << threads << " threads";
  }
}

/// The kernels must keep working after the graph grows — the incremental
/// index maintenance (AddEntities / AddTimePoints / Set) and the lazy table
/// invalidation are what this exercises.
TEST_F(OperatorKernelTest, KernelsTrackIncrementalMutation) {
  TemporalGraph graph = BuildRandomGraph(42, 120, 6, 0.4, 3, 4, 0.08);
  datagen::Pcg32 rng(99);
  for (int round = 0; round < 4; ++round) {
    // Query (builds the lazy tables) …
    const std::size_t n = graph.num_times();
    IntervalSet t1 = RandomInterval(rng, n);
    IntervalSet t2 = RandomInterval(rng, n);
    ExpectSameView(UnionOp(graph, t1, t2), UnionOpRowScan(graph, t1, t2),
                   "pre-mutation union", 42, 1);
    // … then mutate: new time point, new nodes, new edges, new presence.
    TimeId t_new = graph.AppendTimePoint("x" + std::to_string(round));
    NodeId a = graph.AddNode("extra" + std::to_string(round));
    NodeId b = static_cast<NodeId>(rng.NextBelow(
        static_cast<std::uint32_t>(graph.num_nodes())));
    graph.SetNodePresent(a, t_new);
    if (a != b) graph.SetEdgePresent(graph.GetOrAddEdge(a, b), t_new);
    // … and re-query over the grown domain.
    const std::size_t n2 = graph.num_times();
    IntervalSet u1 = RandomInterval(rng, n2) | IntervalSet::Point(n2, t_new);
    IntervalSet u2 = RandomInterval(rng, n2);
    ExpectSameView(Project(graph, u1), ProjectRowScan(graph, u1),
                   "post-mutation project", 42, 1);
    ExpectSameView(DifferenceOp(graph, u1, u2), DifferenceOpRowScan(graph, u1, u2),
                   "post-mutation difference", 42, 1);
  }
}

// --- PresenceIndex folds vs direct column folds --------------------------------------

TEST_F(OperatorKernelTest, SparseTableFoldsMatchDirectColumnFolds) {
  TemporalGraph graph = BuildRandomGraph(7, 250, 13, 0.35, 3, 4, 0.04);
  const PresenceIndex& index = graph.node_presence_index();
  const std::size_t n = index.num_times();
  for (std::size_t first = 0; first < n; ++first) {
    for (std::size_t last = first; last < n; ++last) {
      DynamicBitset or_direct = index.Column(first);
      DynamicBitset and_direct = index.Column(first);
      for (std::size_t t = first + 1; t <= last; ++t) {
        or_direct |= index.Column(t);
        and_direct &= index.Column(t);
      }
      EXPECT_EQ(index.UnionRange(first, last), or_direct)
          << "[" << first << "," << last << "]";
      EXPECT_EQ(index.IntersectRange(first, last), and_direct)
          << "[" << first << "," << last << "]";
    }
  }
}

TEST_F(OperatorKernelTest, FoldsOverScatteredMasksMatchDirectFolds) {
  TemporalGraph graph = BuildRandomGraph(11, 300, 10, 0.4, 3, 4, 0.04);
  const PresenceIndex& index = graph.edge_presence_index();
  const std::size_t n = index.num_times();
  datagen::Pcg32 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    IntervalSet mask = RandomInterval(rng, n);
    DynamicBitset or_direct(index.num_entities());
    DynamicBitset and_direct(index.num_entities());
    and_direct.SetAll();  // vacuous truth on the empty mask
    mask.ForEach([&](TimeId t) {
      or_direct |= index.Column(t);
      and_direct &= index.Column(t);
    });
    EXPECT_EQ(index.UnionOver(mask.bits()), or_direct) << mask.ToString();
    EXPECT_EQ(index.IntersectionOver(mask.bits()), and_direct) << mask.ToString();
  }
}

// --- Bitset extraction ----------------------------------------------------------------

TEST_F(OperatorKernelTest, ToIndicesMatchesForEachSetBit) {
  datagen::Pcg32 rng(17);
  for (std::size_t size : {0ul, 1ul, 63ul, 64ul, 65ul, 1000ul, 4096ul, 100000ul}) {
    DynamicBitset bits(size);
    for (std::size_t i = 0; i < size; ++i) {
      if (rng.NextBool(0.3)) bits.Set(i);
    }
    std::vector<std::uint32_t> expected;
    bits.ForEachSetBit(
        [&](std::size_t i) { expected.push_back(static_cast<std::uint32_t>(i)); });
    EXPECT_EQ(bits.ToIndices(), expected) << "size " << size;

    // Word-range extraction stitches back to the same sequence.
    std::vector<std::uint32_t> stitched;
    const std::size_t words = bits.num_words();
    const std::size_t half = words / 2;
    bits.AppendWordRangeIndices(0, half, stitched);
    bits.AppendWordRangeIndices(half, words, stitched);
    EXPECT_EQ(stitched, expected) << "size " << size;
    EXPECT_EQ(bits.CountWordRange(0, words), expected.size()) << "size " << size;
  }
}

// --- Aggregation: dense vs hash grouping ---------------------------------------------

void ExpectSameAggregate(const AggregateGraph& dense, const AggregateGraph& hash,
                         const char* what, std::uint64_t seed, std::size_t threads) {
  EXPECT_EQ(dense, hash) << what << ", seed " << seed << ", " << threads
                         << " threads";
}

TEST_F(OperatorKernelTest, DenseGroupingMatchesHashReference) {
  const AggregationSemantics semantics[] = {AggregationSemantics::kDistinct,
                                            AggregationSemantics::kAll};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    TemporalGraph graph = BuildRandomGraph(seed, 400, 8, 0.4, 4, 5, 0.03);
    datagen::Pcg32 rng(seed * 31);
    const std::size_t n = graph.num_times();
    const std::vector<std::vector<std::string>> attr_sets = {
        {"color"},           // static → Section 4.2 fast path, dense-eligible
        {"level"},           // time-varying → general path, dense-eligible
        {"color", "level"},  // mixed, two-digit packing
    };
    for (int trial = 0; trial < 3; ++trial) {
      IntervalSet t1 = RandomInterval(rng, n);
      IntervalSet t2 = RandomInterval(rng, n);
      GraphView view = UnionOp(graph, t1, t2);
      for (const auto& names : attr_sets) {
        std::vector<AttrRef> attrs = ResolveAttributes(graph, names);
        for (AggregationSemantics sem : semantics) {
          AggregationOptions dense_options;
          dense_options.semantics = sem;
          dense_options.grouping = GroupingStrategy::kDense;
          AggregationOptions hash_options;
          hash_options.semantics = sem;
          hash_options.grouping = GroupingStrategy::kHash;
          for (std::size_t threads : kThreadCounts) {
            SetParallelism(threads);
            ExpectSameAggregate(Aggregate(graph, view, attrs, dense_options),
                                Aggregate(graph, view, attrs, hash_options),
                                names.front().c_str(), seed, threads);
            // And both must match the reference.
            ExpectSameAggregate(Aggregate(graph, view, attrs, dense_options),
                                testing::RefAggregate(graph, view, attrs, sem),
                                "vs reference", seed, threads);
          }
        }
      }
    }
  }
}

TEST_F(OperatorKernelTest, DenseGroupingHonorsNodeTimeFilter) {
  TemporalGraph graph = BuildRandomGraph(3, 300, 6, 0.5, 3, 4, 0.05);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  IntervalSet all = IntervalSet::All(graph.num_times());
  GraphView view = UnionOp(graph, all, all);
  NodeTimeFilter filter = [](NodeId n, TimeId t) { return (n + t) % 3 != 0; };

  AggregationOptions dense_options;
  dense_options.filter = &filter;  // filter forces the general walk
  dense_options.grouping = GroupingStrategy::kDense;
  AggregationOptions hash_options;
  hash_options.filter = &filter;
  hash_options.grouping = GroupingStrategy::kHash;
  ExpectSameAggregate(Aggregate(graph, view, attrs, dense_options),
                      Aggregate(graph, view, attrs, hash_options), "filtered", 3, 1);
}

/// kAuto must fall back to hashing when the packed domain is too large — a
/// high-cardinality attribute (one distinct value per node) overflows
/// kDenseNodeCellsMax only for big graphs, so instead this pins the decision
/// boundary directly through the counters.
TEST_F(OperatorKernelTest, AutoGroupingRoutesByDomainSize) {
  TemporalGraph graph = BuildRandomGraph(9, 300, 5, 0.5, 3, 4, 0.05);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  IntervalSet all = IntervalSet::All(graph.num_times());
  GraphView view = UnionOp(graph, all, all);

  ResetExecCounters();
  AggregationOptions auto_options;  // kAuto; color domain is tiny → dense
  Aggregate(graph, view, attrs, auto_options);
  ExecCounters after_auto = GetExecCounters();
  EXPECT_GT(after_auto.agg_dense_groups, 0u);
  EXPECT_EQ(after_auto.agg_hash_groups, 0u);

  ResetExecCounters();
  AggregationOptions hash_options;
  hash_options.grouping = GroupingStrategy::kHash;
  Aggregate(graph, view, attrs, hash_options);
  ExecCounters after_hash = GetExecCounters();
  EXPECT_EQ(after_hash.agg_dense_groups, 0u);
  EXPECT_GT(after_hash.agg_hash_groups, 0u);
}

}  // namespace
}  // namespace graphtempo
