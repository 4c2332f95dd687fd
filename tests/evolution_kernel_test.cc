#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/evolution.h"
#include "core/graph_snapshot.h"
#include "datagen/random.h"
#include "engine/engine.h"
#include "engine/wire.h"
#include "reference_impl.h"
#include "test_graphs.h"
#include "util/parallel.h"

/// \file
/// Randomized differential suite pinning `AggregateEvolution` (fold →
/// classify → dense group, docs/KERNELS.md "Evolution") against the
/// entity-at-a-time reference `testing::RefAggregateEvolution`.
///
/// Coverage: static, time-varying and mixed attribute sets; kNoValue cells;
/// with and without a filter; identical, disjoint, overlapping, empty and
/// non-contiguous intervals; attribute domains above the dense thresholds
/// (hashed group codes) and above the packable range (numbered tuples); a
/// snapshot-restored graph whose presence columns are still compressed.
/// Every comparison runs at 1, 2, 7 and 16 threads and asserts equal
/// EvolutionAggregate maps; the 16-thread answer must also render to
/// byte-identical wire JSON.

namespace graphtempo {
namespace {

using testing::BuildShapedGraph;
using testing::RefAggregateEvolution;
using testing::Shape;

constexpr std::size_t kThreadCounts[] = {1, 2, 7, 16};

class EvolutionKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelism(1); }
};

IntervalSet Scattered(datagen::Pcg32& rng, std::size_t n) {
  IntervalSet set(n);
  for (TimeId t = 0; t < n; ++t) {
    if (rng.NextBool(0.5)) set.Add(t);
  }
  return set;
}

/// (old, new) interval pairs of every shape the suite must cover.
std::vector<std::pair<IntervalSet, IntervalSet>> IntervalPairs(datagen::Pcg32& rng,
                                                               std::size_t n) {
  std::vector<std::pair<IntervalSet, IntervalSet>> pairs;
  const TimeId last = static_cast<TimeId>(n - 1);
  const TimeId mid = static_cast<TimeId>(n / 2);
  pairs.emplace_back(IntervalSet::Range(n, 0, mid), IntervalSet::Range(n, 0, mid));
  pairs.emplace_back(IntervalSet::Range(n, 0, mid - 1), IntervalSet::Range(n, mid, last));
  pairs.emplace_back(IntervalSet::Range(n, 0, mid), IntervalSet::Range(n, 1, last));
  pairs.emplace_back(IntervalSet(n), IntervalSet::Range(n, 0, mid));
  pairs.emplace_back(IntervalSet::Point(n, last), IntervalSet(n));
  pairs.emplace_back(IntervalSet(n), IntervalSet(n));
  IntervalSet evens(n), odds(n);
  for (TimeId t = 0; t < n; ++t) (t % 2 == 0 ? evens : odds).Add(t);
  pairs.emplace_back(evens, odds);
  pairs.emplace_back(evens, IntervalSet::All(n));
  for (int i = 0; i < 3; ++i) pairs.emplace_back(Scattered(rng, n), Scattered(rng, n));
  return pairs;
}

std::string EvolutionJson(const TemporalGraph& graph, const IntervalSet& t_old,
                          const IntervalSet& t_new, const std::vector<AttrRef>& attrs,
                          const EvolutionAggregate& evolution) {
  engine::QuerySpec spec;
  spec.kind = engine::QueryKind::kEvolution;
  spec.t1 = t_old;
  spec.t2 = t_new;
  spec.attrs = attrs;
  const engine::QueryResult result(evolution);
  return engine::wire::QueryResultToJson(graph, spec, engine::QueryPlan{}, result, 0);
}

/// Runs the kernel on `graph` at every thread count and checks it against
/// the reference computed on `reference_graph` (the same data; they differ
/// only for the snapshot-restored case).
void ExpectMatchesReference(const TemporalGraph& graph,
                            const TemporalGraph& reference_graph, std::uint64_t seed,
                            const std::vector<std::string>& names,
                            const NodeTimeFilter* filter) {
  const std::vector<AttrRef> attrs = ResolveAttributes(graph, names);
  datagen::Pcg32 rng(seed);
  for (const auto& [t_old, t_new] : IntervalPairs(rng, graph.num_times())) {
    SetParallelism(1);
    const EvolutionAggregate expected =
        RefAggregateEvolution(reference_graph, t_old, t_new, attrs, filter);
    const std::string expected_json =
        EvolutionJson(reference_graph, t_old, t_new, attrs, expected);
    ASSERT_FALSE(expected_json.empty());
    for (std::size_t threads : kThreadCounts) {
      SetParallelism(threads);
      const EvolutionAggregate actual =
          AggregateEvolution(graph, t_old, t_new, attrs, filter);
      std::string where = "attrs";
      for (const std::string& name : names) where += " " + name;
      where += ", seed " + std::to_string(seed) + ", " + std::to_string(threads) +
               " threads, filter " + (filter != nullptr ? "on" : "off");
      EXPECT_EQ(actual, expected) << where;
      // Equal answers serialize equally; one rendering per interval pair (the
      // most chunked run) keeps the suite fast under the sanitizers.
      if (threads == kThreadCounts[std::size(kThreadCounts) - 1]) {
        EXPECT_EQ(EvolutionJson(graph, t_old, t_new, attrs, actual), expected_json)
            << where;
      }
    }
  }
}

/// Hides roughly a third of (node, time) appearances, deterministically.
const NodeTimeFilter kFilter = [](NodeId n, TimeId t) { return (n * 7 + t * 3) % 3 != 0; };

const std::vector<std::vector<std::string>> kSmallDomainSets = {
    {"color"},           // static
    {"level"},           // time-varying
    {"color", "level"},  // mixed
    {"level", "mood"},   // time-varying pair
    {"mood", "color"},   // mixed, time-varying first
};

TEST_F(EvolutionKernelTest, MatchesReferenceOnSmallDomains) {
  for (std::uint64_t seed : {11u, 12u}) {
    const Shape shape{.nodes = 1200, .times = 9, .edges = 6000};
    const TemporalGraph graph = BuildShapedGraph(seed, shape);
    for (const auto& names : kSmallDomainSets) {
      ExpectMatchesReference(graph, graph, seed, names, nullptr);
      ExpectMatchesReference(graph, graph, seed, names, &kFilter);
    }
  }
}

TEST_F(EvolutionKernelTest, MatchesReferenceBeyondTheDenseThresholds) {
  // 300 values per wide attribute (radix 301), against kDenseEdgePairsMax =
  // 2^20 pairs, kDenseNodeCellsMax = 2^18 cells and the 2^32 packable cells.
  const Shape shape{.nodes = 1100, .times = 6, .edges = 2000, .wide = 300};
  const TemporalGraph graph = BuildShapedGraph(21, shape);
  struct Case {
    std::vector<std::string> names;
    bool dense_nodes;
    const NodeTimeFilter* filter;
  };
  const std::vector<Case> cases = {
      {{"wide_a", "color"}, true, nullptr},  // 1505 cells: hashed edges
      {{"wide_a", "level"}, true, &kFilter},  // the same, time-varying
      {{"wide_a", "wide_b", "color"}, false, nullptr},  // 453k cells: hashed nodes
      {{"wide_a", "wide_b", "level"}, false, &kFilter},
      {{"wide_a", "wide_b", "wide_c", "wide_d"}, false, nullptr},  // 8.2e9: unpackable
      {{"wide_a", "wide_b", "wide_c", "wide_d"}, false, &kFilter},
      {{"wide_a", "wide_b", "wide_c", "wide_d", "level"}, false, nullptr},
  };
  for (const Case& c : cases) {
    const GroupingResolution grouping = ResolveGrouping(
        graph, ResolveAttributes(graph, c.names), GroupingStrategy::kAuto);
    ASSERT_EQ(grouping.dense_nodes, c.dense_nodes);
    ASSERT_FALSE(grouping.dense_edges);
    ExpectMatchesReference(graph, graph, 21, c.names, c.filter);
  }
}

TEST_F(EvolutionKernelTest, MatchesReferenceOnSnapshotRestoredGraph) {
  const Shape shape{.nodes = 1200, .times = 8, .edges = 6000};
  const TemporalGraph graph = BuildShapedGraph(31, shape);
  const std::string path = ::testing::TempDir() + "/gt_evolution_kernel_" +
                           std::to_string(getpid()) + ".snap";
  std::string error;
  ASSERT_TRUE(SaveGraphSnapshot(graph, path, &error)) << error;
  std::optional<TemporalGraph> loaded = LoadGraphSnapshot(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_GT(loaded->node_presence_index().compressed_columns(), 0u);
  ASSERT_GT(loaded->edge_presence_index().compressed_columns(), 0u);
  // The first run decodes the presence columns it folds, concurrently when
  // the pool has threads.
  ExpectMatchesReference(*loaded, graph, 31, {"color", "level"}, nullptr);
  ExpectMatchesReference(*loaded, graph, 31, {"color"}, nullptr);
}

TEST_F(EvolutionKernelTest, RankEventGroupsMatchesReferenceRanking) {
  const Shape shape{.nodes = 800, .times = 7, .edges = 4000};
  const TemporalGraph graph = BuildShapedGraph(41, shape);
  const std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color", "level"});
  const IntervalSet t_old = IntervalSet::Range(7, 0, 3);
  const IntervalSet t_new = IntervalSet::Range(7, 2, 6);
  const EvolutionAggregate reference = RefAggregateEvolution(graph, t_old, t_new, attrs);
  for (EventType event :
       {EventType::kStability, EventType::kGrowth, EventType::kShrinkage}) {
    const TopEventGroups top = RankEventGroups(graph, t_old, t_new, attrs, event, 1000);
    std::size_t node_groups = 0, edge_groups = 0;
    for (const auto& row : reference.nodes()) {
      node_groups += row.weight.ForEvent(event) > 0;
    }
    for (const auto& row : reference.edges()) {
      edge_groups += row.weight.ForEvent(event) > 0;
    }
    EXPECT_EQ(top.nodes.size(), node_groups);
    EXPECT_EQ(top.edges.size(), edge_groups);
    for (const RankedNodeGroup& group : top.nodes) {
      EXPECT_EQ(group.weight, reference.NodeWeights(group.tuple).ForEvent(event));
    }
    for (const RankedEdgeGroup& group : top.edges) {
      EXPECT_EQ(group.weight,
                reference.EdgeWeights(group.pair.src, group.pair.dst).ForEvent(event));
    }
  }
}

}  // namespace
}  // namespace graphtempo
