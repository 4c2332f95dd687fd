#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregation.h"
#include "core/operators.h"
#include "datagen/random.h"
#include "reference_impl.h"
#include "test_graphs.h"
#include "util/parallel.h"

/// \file
/// Randomized differential suite pinning Algorithm 2 on group codes
/// (`Aggregate`, docs/KERNELS.md §5) against the literal reference
/// `testing::RefAggregate`.
///
/// Coverage: static, time-varying and mixed attribute sets with kNoValue
/// cells; views of all four operators, including difference views whose
/// edge endpoints are not view nodes, empty views and views of one time
/// point; DIST and ALL; with and without a NodeTimeFilter; kAuto, kDense
/// and kHash grouping; attribute domains above the dense thresholds (hash
/// tables on codes) and above the packable range (numbered tuples). kAuto
/// runs at 1, 2, 7 and 16 threads; kDense and kHash take those thread
/// counts in turn.

namespace graphtempo {
namespace {

using testing::BuildShapedGraph;
using testing::RefAggregate;
using testing::Shape;

constexpr std::size_t kThreadCounts[] = {1, 2, 7, 16};

class AggregationKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { SetParallelism(1); }
};

/// Hides roughly a third of (node, time) appearances, deterministically.
const NodeTimeFilter kFilter = [](NodeId n, TimeId t) { return (n * 7 + t * 3) % 3 != 0; };

IntervalSet Scattered(datagen::Pcg32& rng, std::size_t n) {
  IntervalSet set(n);
  for (TimeId t = 0; t < n; ++t) {
    if (rng.NextBool(0.5)) set.Add(t);
  }
  return set;
}

struct NamedView {
  std::string name;
  GraphView view;
};

/// Views of every operator over interval pairs of every shape: overlapping,
/// disjoint, one time point, empty and scattered.
std::vector<NamedView> Views(const TemporalGraph& graph, std::uint64_t seed) {
  const std::size_t n = graph.num_times();
  const TimeId last = static_cast<TimeId>(n - 1);
  const TimeId mid = static_cast<TimeId>(n / 2);
  datagen::Pcg32 rng(seed);
  std::vector<std::pair<IntervalSet, IntervalSet>> pairs = {
      {IntervalSet::Range(n, 0, mid), IntervalSet::Range(n, 1, last)},
      {IntervalSet::Range(n, 0, mid - 1), IntervalSet::Range(n, mid, last)},
      {IntervalSet::Point(n, mid), IntervalSet::Point(n, last)},
      {IntervalSet::Point(n, 0), IntervalSet(n)},
      {Scattered(rng, n), Scattered(rng, n)},
  };
  std::vector<NamedView> views;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& [t1, t2] = pairs[i];
    const std::string tag = " #" + std::to_string(i);
    views.push_back({"union" + tag, UnionOp(graph, t1, t2)});
    views.push_back({"intersection" + tag, IntersectionOp(graph, t1, t2)});
    views.push_back({"difference" + tag, DifferenceOp(graph, t1, t2)});
    views.push_back({"difference reversed" + tag, DifferenceOp(graph, t2, t1)});
    // Def 2.5 without its endpoint rule: only the nodes absent from T2, so
    // the deleted edges keep endpoints that are not view nodes.
    GraphView bare = DifferenceOp(graph, t1, t2);
    std::erase_if(bare.nodes, [&](NodeId n) {
      return graph.NodeTimes(n).Intersects(t2);
    });
    views.push_back({"difference without endpoints" + tag, std::move(bare)});
    if (!t1.Empty()) views.push_back({"project" + tag, Project(graph, t1)});
  }
  views.push_back({"empty union", UnionOp(graph, IntervalSet(n), IntervalSet(n))});
  return views;
}

/// True if some edge of `view` has an endpoint outside `view.nodes`.
bool HasDanglingEndpoint(const TemporalGraph& graph, const GraphView& view) {
  for (EdgeId e : view.edges) {
    const auto [src, dst] = graph.edge(e);
    if (!std::binary_search(view.nodes.begin(), view.nodes.end(), src) ||
        !std::binary_search(view.nodes.begin(), view.nodes.end(), dst)) {
      return true;
    }
  }
  return false;
}

/// Checks `Aggregate` against `RefAggregate` on every view, both semantics,
/// with and without the filter, under every grouping the domain admits.
/// Returns the number of comparisons made.
std::size_t ExpectMatchesReference(const TemporalGraph& graph,
                                   const std::vector<NamedView>& views,
                                   const std::vector<std::string>& names) {
  const std::vector<AttrRef> attrs = ResolveAttributes(graph, names);
  const GroupingResolution resolution =
      ResolveGrouping(graph, attrs, GroupingStrategy::kAuto);
  std::vector<GroupingStrategy> forced = {GroupingStrategy::kHash};
  if (resolution.dense_nodes && resolution.dense_edges) {
    forced.push_back(GroupingStrategy::kDense);
  }
  std::size_t comparisons = 0;
  std::size_t turn = 0;
  for (const NamedView& named : views) {
    for (AggregationSemantics semantics :
         {AggregationSemantics::kDistinct, AggregationSemantics::kAll}) {
      for (const NodeTimeFilter* filter : {static_cast<const NodeTimeFilter*>(nullptr),
                                           &kFilter}) {
        SetParallelism(1);
        const AggregateGraph expected =
            RefAggregate(graph, named.view, attrs, semantics, filter);
        std::string where = named.name + ", attrs";
        for (const std::string& name : names) where += " " + name;
        where += semantics == AggregationSemantics::kDistinct ? ", DIST" : ", ALL";
        where += filter != nullptr ? ", filtered" : "";
        auto check = [&](GroupingStrategy grouping, std::size_t threads) {
          SetParallelism(threads);
          AggregationOptions options;
          options.semantics = semantics;
          options.filter = filter;
          options.grouping = grouping;
          const AggregateGraph actual = Aggregate(graph, named.view, attrs, options);
          const std::string context = where + ", grouping " +
                                      std::to_string(static_cast<int>(grouping)) + ", " +
                                      std::to_string(threads) + " threads";
          EXPECT_EQ(actual, expected) << context;
          ++comparisons;
        };
        for (std::size_t threads : kThreadCounts) check(GroupingStrategy::kAuto, threads);
        for (GroupingStrategy grouping : forced) {
          check(grouping, kThreadCounts[turn++ % std::size(kThreadCounts)]);
        }
      }
    }
  }
  return comparisons;
}

TEST_F(AggregationKernelTest, MatchesReferenceOnSmallDomains) {
  const Shape shape{.nodes = 500, .times = 9, .edges = 2500};
  const TemporalGraph graph = BuildShapedGraph(51, shape);
  const std::vector<NamedView> views = Views(graph, 51);
  // The difference views must exercise edges whose endpoints the view omits.
  EXPECT_TRUE(std::any_of(views.begin(), views.end(), [&](const NamedView& named) {
    return named.name.starts_with("difference") && HasDanglingEndpoint(graph, named.view);
  }));
  EXPECT_TRUE(std::any_of(views.begin(), views.end(), [](const NamedView& named) {
    return named.view.nodes.empty() && named.view.edges.empty();
  }));
  const std::vector<std::vector<std::string>> sets = {
      {"color"},           // static
      {"level"},           // time-varying
      {"color", "level"},  // mixed
      {"level", "mood"},   // time-varying pair
      {"mood", "color"},   // mixed, time-varying first
  };
  for (const auto& names : sets) {
    EXPECT_GT(ExpectMatchesReference(graph, views, names), 0u);
  }
}

TEST_F(AggregationKernelTest, MatchesReferenceBeyondTheDenseThresholds) {
  // 300 values per wide attribute (radix 301), against kDenseEdgePairsMax =
  // 2^20 pairs, kDenseNodeCellsMax = 2^18 cells and the 2^32 packable cells.
  const Shape shape{.nodes = 700, .times = 6, .edges = 1500, .wide = 300};
  const TemporalGraph graph = BuildShapedGraph(61, shape);
  // The views of two interval pairs (overlapping, scattered) keep the wide
  // and unpackable domains affordable under the sanitizers.
  std::vector<NamedView> views = Views(graph, 61);
  std::erase_if(views, [](const NamedView& named) {
    return !named.name.ends_with(" #0") && !named.name.ends_with(" #4");
  });
  ASSERT_FALSE(views.empty());
  struct Case {
    std::vector<std::string> names;
    bool dense_nodes;
  };
  const std::vector<Case> cases = {
      {{"wide_a", "color"}, true},            // 1505 cells: hashed edges
      {{"wide_a", "level"}, true},            // the same, time-varying
      {{"wide_a", "wide_b", "color"}, false},  // 453k cells: hashed nodes
      {{"wide_a", "wide_b", "level"}, false},
      {{"wide_a", "wide_b", "wide_c", "wide_d"}, false},  // 8.2e9: unpackable
      {{"wide_a", "wide_b", "wide_c", "wide_d", "level"}, false},
  };
  for (const Case& c : cases) {
    const GroupingResolution grouping = ResolveGrouping(
        graph, ResolveAttributes(graph, c.names), GroupingStrategy::kAuto);
    ASSERT_EQ(grouping.dense_nodes, c.dense_nodes);
    ASSERT_FALSE(grouping.dense_edges);
    EXPECT_GT(ExpectMatchesReference(graph, views, c.names), 0u);
  }
}

}  // namespace
}  // namespace graphtempo
