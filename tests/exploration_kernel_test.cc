#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/exploration.h"
#include "core/graph_snapshot.h"
#include "core/lattice.h"
#include "core/naive_exploration.h"
#include "reference_impl.h"
#include "test_graphs.h"
#include "util/parallel.h"

/// \file
/// Randomized differential suite pinning the exploration counting kernel
/// (fold algebra for the event entities, popcounts and per-appearance code
/// walks; docs/KERNELS.md §10) against the view-based definition
/// `testing::RefCountEvents`.
///
/// Every candidate count of every explorer comes from the kernel, so the
/// suite checks whole runs: `Explore` and `ExploreNaive` pairs and
/// evaluation counts equal `testing::RefExplore` (pruned and exhaustive) fed
/// with reference counts, for every Table 1 row (3 events × 2 extensions ×
/// 2 references) and several thresholds; `ExploreBothEnds` and
/// `SuggestThreshold` equal their definitions over the same counts; and
/// `CountEvents` equals the reference on non-adjacent sides. Selectors cover
/// raw, static, time-varying and mixed attributes; totals and tuple filters
/// (one matching nothing, ones naming kNoValue); DIST and ALL; nodes and
/// edges; packable and numbered (unpackable) attribute domains. Graphs are
/// `BuildShapedGraph` graphs plus one snapshot-restored graph whose presence
/// columns are still compressed. Every explorer runs at 1, 2, 7 and 16
/// threads.

namespace graphtempo {
namespace {

using testing::BuildShapedGraph;
using testing::RefCountEvents;
using testing::RefExplore;
using testing::Shape;

constexpr std::size_t kThreadCounts[] = {1, 2, 7, 16};
constexpr EventType kEvents[] = {EventType::kStability, EventType::kGrowth,
                                 EventType::kShrinkage};
constexpr ExtensionSemantics kExtensions[] = {ExtensionSemantics::kUnion,
                                              ExtensionSemantics::kIntersection};

class ExplorationKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelism(1); }
};

struct NamedSelector {
  std::string name;
  EntitySelector selector;
};

/// The tuple of the first node present at some time point, at that point.
AttrTuple SomeNodeTuple(const TemporalGraph& graph, const std::vector<AttrRef>& attrs) {
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    for (TimeId t = 0; t < graph.num_times(); ++t) {
      if (graph.NodePresentAt(n, t)) return TupleAt(graph, attrs, n, t);
    }
  }
  ADD_FAILURE() << "graph without node appearances";
  return AttrTuple{};
}

/// The endpoint tuples of the first edge present at some time point.
std::pair<AttrTuple, AttrTuple> SomeEdgeTuples(const TemporalGraph& graph,
                                               const std::vector<AttrRef>& attrs) {
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    for (TimeId t = 0; t < graph.num_times(); ++t) {
      if (!graph.EdgePresentAt(e, t)) continue;
      auto [src, dst] = graph.edge(e);
      return {TupleAt(graph, attrs, src, t), TupleAt(graph, attrs, dst, t)};
    }
  }
  ADD_FAILURE() << "graph without edge appearances";
  return {};
}

/// Totals and tuple-filtered selectors over `names`, on nodes and edges,
/// under DIST and ALL.
void AddSelectors(const TemporalGraph& graph, const std::vector<std::string>& names,
                  std::vector<NamedSelector>& out) {
  const std::vector<AttrRef> attrs = ResolveAttributes(graph, names);
  std::string label;
  for (const std::string& name : names) label += (label.empty() ? "" : "+") + name;
  const AttrTuple node_tuple = SomeNodeTuple(graph, attrs);
  const auto [src_tuple, dst_tuple] = SomeEdgeTuples(graph, attrs);
  for (AggregationSemantics semantics :
       {AggregationSemantics::kDistinct, AggregationSemantics::kAll}) {
    const std::string how = semantics == AggregationSemantics::kDistinct ? " dist" : " all";
    EntitySelector nodes;
    nodes.kind = EntitySelector::Kind::kNodes;
    nodes.attrs = attrs;
    nodes.semantics = semantics;
    out.push_back({label + how + " nodes", nodes});
    nodes.node_tuple = node_tuple;
    out.push_back({label + how + " nodes of one tuple", nodes});

    EntitySelector edges = nodes;
    edges.kind = EntitySelector::Kind::kEdges;
    edges.node_tuple.reset();
    out.push_back({label + how + " edges", edges});
    edges.src_tuple = src_tuple;
    edges.dst_tuple = dst_tuple;
    out.push_back({label + how + " edges of one tuple pair", edges});
  }
}

std::vector<NamedSelector> Selectors(const TemporalGraph& graph) {
  std::vector<NamedSelector> out;
  EntitySelector raw;
  raw.kind = EntitySelector::Kind::kNodes;
  out.push_back({"raw nodes", raw});
  raw.kind = EntitySelector::Kind::kEdges;
  out.push_back({"raw edges", raw});
  AddSelectors(graph, {"color"}, out);           // static
  AddSelectors(graph, {"level"}, out);           // time-varying
  AddSelectors(graph, {"color", "level"}, out);  // mixed

  const std::vector<AttrRef> color = ResolveAttributes(graph, {"color"});
  const std::vector<AttrRef> level = ResolveAttributes(graph, {"level"});
  const AttrTuple unset = AttrTuple::Of({kNoValue});
  const AttrTuple outside = AttrTuple::Of({AttrValueId{999}});  // beyond every dictionary
  for (AggregationSemantics semantics :
       {AggregationSemantics::kDistinct, AggregationSemantics::kAll}) {
    EntitySelector s;
    s.semantics = semantics;
    s.kind = EntitySelector::Kind::kNodes;
    s.attrs = level;
    s.node_tuple = unset;
    out.push_back({"level unset nodes", s});
    s.node_tuple = outside;
    out.push_back({"level nodes matching nothing", s});
    s.attrs = color;
    out.push_back({"color nodes matching nothing", s});
    s.kind = EntitySelector::Kind::kEdges;
    s.node_tuple.reset();
    s.src_tuple = unset;
    s.dst_tuple = unset;
    out.push_back({"color unset edges", s});
    s.src_tuple = outside;
    out.push_back({"color edges matching nothing", s});
    s.attrs = level;
    s.src_tuple = unset;
    s.dst_tuple = SomeNodeTuple(graph, level);
    out.push_back({"level edges from unset", s});
  }
  return out;
}

using PairKey = std::tuple<TimeId, TimeId, TimeId, TimeId>;

PairKey Key(TimeRange old_range, TimeRange new_range) {
  return {old_range.first, old_range.last, new_range.first, new_range.last};
}

/// Reference counts of every adjacent candidate pair: the explorers'
/// candidates, the both-ends lattice and the threshold's consecutive pairs.
std::map<PairKey, Weight> ReferenceCounts(const TemporalGraph& graph, EventType event,
                                          ExtensionSemantics semantics,
                                          const EntitySelector& selector) {
  std::map<PairKey, Weight> counts;
  for (const auto& [old_range, new_range] :
       IntervalLattice(graph.num_times()).AdjacentPairs()) {
    counts[Key(old_range, new_range)] =
        RefCountEvents(graph, old_range, new_range, semantics, event, selector);
  }
  return counts;
}

/// `ExploreBothEnds` by definition: every adjacent pair is evaluated, and
/// the qualifying pairs no other qualifying pair dominates (contained in it
/// for minimal pairs, containing it for maximal ones) are kept.
ExplorationResult RefExploreBothEnds(const TemporalGraph& graph,
                                     const ExplorationSpec& spec,
                                     const std::map<PairKey, Weight>& counts) {
  auto contains = [](const std::pair<TimeRange, TimeRange>& outer,
                     const std::pair<TimeRange, TimeRange>& inner) {
    return outer.first.first <= inner.first.first &&
           inner.first.last <= outer.first.last &&
           outer.second.first <= inner.second.first &&
           inner.second.last <= outer.second.last;
  };
  const auto pairs = IntervalLattice(graph.num_times()).AdjacentPairs();
  ExplorationResult result;
  result.evaluations = pairs.size();
  for (const auto& pair : pairs) {
    const Weight count = counts.at(Key(pair.first, pair.second));
    if (count < spec.k) continue;
    bool dominated = false;
    for (const auto& other : pairs) {
      if (other == pair || counts.at(Key(other.first, other.second)) < spec.k) continue;
      const bool minimal = spec.semantics == ExtensionSemantics::kUnion;
      if (minimal ? contains(pair, other) : contains(other, pair)) dominated = true;
    }
    if (!dominated) result.pairs.push_back(IntervalPair{pair.first, pair.second, count});
  }
  return result;
}

void ExpectSameResult(const ExplorationResult& actual, const ExplorationResult& expected,
                      const std::string& where) {
  EXPECT_EQ(actual.pairs, expected.pairs) << where;
  EXPECT_EQ(actual.evaluations, expected.evaluations) << where;
}

/// Runs every explorer on `graph` for every selector, Table 1 row and
/// threshold, against references computed on `reference_graph` (the same
/// data; they differ only for the snapshot-restored case).
void ExpectMatchesReference(const TemporalGraph& graph,
                            const TemporalGraph& reference_graph,
                            const std::vector<NamedSelector>& selectors,
                            const std::string& graph_name) {
  const std::size_t n = graph.num_times();
  for (const NamedSelector& named : selectors) {
    for (EventType event : kEvents) {
      for (ExtensionSemantics semantics : kExtensions) {
        const std::map<PairKey, Weight> counts =
            ReferenceCounts(reference_graph, event, semantics, named.selector);
        auto count = [&](TimeRange old_range, TimeRange new_range) {
          return counts.at(Key(old_range, new_range));
        };
        // Thresholds below, inside and above the counts' range.
        Weight max_count = 0;
        for (const auto& [key, weight] : counts) max_count = std::max(max_count, weight);
        std::vector<Weight> thresholds = {1, std::max<Weight>(max_count / 2, 1),
                                          std::max<Weight>(max_count, 1), max_count + 1};
        std::sort(thresholds.begin(), thresholds.end());
        thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                         thresholds.end());
        const std::string row =
            graph_name + ", " + named.name + ", " + EventTypeName(event) +
            (semantics == ExtensionSemantics::kUnion ? ", union" : ", intersection");
        for (ReferenceEnd reference : {ReferenceEnd::kOld, ReferenceEnd::kNew}) {
          for (Weight k : thresholds) {
            ExplorationSpec spec;
            spec.event = event;
            spec.semantics = semantics;
            spec.reference = reference;
            spec.selector = named.selector;
            spec.k = k;
            const std::string where =
                row + (reference == ReferenceEnd::kOld ? ", ref old" : ", ref new") +
                ", k " + std::to_string(k);
            const ExplorationResult pruned = RefExplore(n, spec, /*pruned=*/true, count);
            const ExplorationResult exhaustive =
                RefExplore(n, spec, /*pruned=*/false, count);
            SetParallelism(1);
            ExpectSameResult(ExploreNaive(graph, spec), exhaustive, where + ", naive");
            ExpectSameResult(ExploreBothEnds(graph, spec),
                             RefExploreBothEnds(reference_graph, spec, counts),
                             where + ", both ends");
            for (std::size_t threads : kThreadCounts) {
              SetParallelism(threads);
              ExpectSameResult(Explore(graph, spec), pruned,
                               where + ", " + std::to_string(threads) + " threads");
            }
          }
        }
        if (semantics != ExtensionSemantics::kUnion) continue;
        // SuggestThreshold: min and max over the consecutive pairs (t, t+1).
        Weight lo = count(TimeRange{0, 0}, TimeRange{1, 1});
        Weight hi = lo;
        for (TimeId t = 1; t + 1 < n; ++t) {
          const Weight c = count(TimeRange{t, t}, TimeRange{t + 1, t + 1});
          lo = std::min(lo, c);
          hi = std::max(hi, c);
        }
        for (std::size_t threads : kThreadCounts) {
          SetParallelism(threads);
          const ThresholdSuggestion suggestion =
              SuggestThreshold(graph, event, named.selector);
          EXPECT_EQ(suggestion.min_weight, lo) << row << ", " << threads << " threads";
          EXPECT_EQ(suggestion.max_weight, hi) << row << ", " << threads << " threads";
        }
      }
    }
  }
}

TEST_F(ExplorationKernelTest, ExplorersMatchReferenceOnShapedGraphs) {
  const Shape shape{.nodes = 160, .times = 6, .edges = 700};
  const TemporalGraph graph = BuildShapedGraph(51, shape);
  ExpectMatchesReference(graph, graph, Selectors(graph), "seed 51");
}

TEST_F(ExplorationKernelTest, CountEventsMatchesReferenceOnNonAdjacentSides) {
  const Shape shape{.nodes = 160, .times = 7, .edges = 700};
  const TemporalGraph graph = BuildShapedGraph(53, shape);
  const std::vector<std::pair<TimeRange, TimeRange>> sides = {
      {TimeRange{0, 1}, TimeRange{3, 6}},
      {TimeRange{1, 1}, TimeRange{5, 5}},
      {TimeRange{0, 3}, TimeRange{6, 6}},
  };
  for (const NamedSelector& named : Selectors(graph)) {
    for (EventType event : kEvents) {
      for (ExtensionSemantics semantics : kExtensions) {
        for (const auto& [old_range, new_range] : sides) {
          EXPECT_EQ(CountEvents(graph, old_range, new_range, semantics, event,
                                named.selector),
                    RefCountEvents(graph, old_range, new_range, semantics, event,
                                   named.selector))
              << named.name << ", " << EventTypeName(event) << ", old ["
              << old_range.first << "," << old_range.last << "], new ["
              << new_range.first << "," << new_range.last << "]";
        }
      }
    }
  }
}

TEST_F(ExplorationKernelTest, NumberedTuplesMatchReference) {
  // 300 values per wide attribute: four of them span 8.1e9 cells, beyond the
  // 2^32 packable codes, so the kernel reads numbered tuples.
  const Shape shape{.nodes = 400, .times = 5, .edges = 1000, .wide = 300};
  const TemporalGraph graph = BuildShapedGraph(54, shape);
  std::vector<NamedSelector> selectors;
  AddSelectors(graph, {"wide_a", "wide_b", "wide_c", "wide_d"}, selectors);
  AddSelectors(graph, {"wide_a", "wide_b", "wide_c", "level"}, selectors);
  ExpectMatchesReference(graph, graph, selectors, "numbered tuples");
}

TEST_F(ExplorationKernelTest, ExplorersMatchReferenceOnSnapshotRestoredGraph) {
  const Shape shape{.nodes = 160, .times = 6, .edges = 700};
  const TemporalGraph graph = BuildShapedGraph(55, shape);
  const std::string path = ::testing::TempDir() + "/gt_exploration_kernel_" +
                           std::to_string(getpid()) + ".snap";
  std::string error;
  ASSERT_TRUE(SaveGraphSnapshot(graph, path, &error)) << error;
  std::optional<TemporalGraph> loaded = LoadGraphSnapshot(path, &error);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_GT(loaded->node_presence_index().compressed_columns(), 0u);
  ASSERT_GT(loaded->edge_presence_index().compressed_columns(), 0u);
  // The first engine decodes the compressed presence columns it folds.
  std::vector<NamedSelector> selectors;
  AddSelectors(graph, {"color", "level"}, selectors);
  ExpectMatchesReference(*loaded, graph, selectors, "snapshot");
}

}  // namespace
}  // namespace graphtempo
