#include "core/evolution.h"

#include <gtest/gtest.h>

#include <string>

#include "reference_impl.h"
#include "test_graphs.h"

namespace graphtempo {
namespace {

using testing::AggregateEvolutionComponents;
using testing::BuildPaperGraph;

AttrTuple GP(const TemporalGraph& graph, const std::string& gender,
             const std::string& pubs) {
  AttrRef g = *graph.FindAttribute("gender");
  AttrRef p = *graph.FindAttribute("publications");
  AttrTuple tuple;
  tuple.Append(*graph.FindValueCode(g, gender));
  tuple.Append(*graph.FindValueCode(p, pubs));
  return tuple;
}

AttrTuple G(const TemporalGraph& graph, const std::string& gender) {
  AttrRef g = *graph.FindAttribute("gender");
  AttrTuple tuple;
  tuple.Append(*graph.FindValueCode(g, gender));
  return tuple;
}

TEST(EventTypeTest, Names) {
  EXPECT_STREQ(EventTypeName(EventType::kStability), "stability");
  EXPECT_STREQ(EventTypeName(EventType::kGrowth), "growth");
  EXPECT_STREQ(EventTypeName(EventType::kShrinkage), "shrinkage");
}

// --- Figure 4a: the evolution graph between t0 and t1 ----------------------------

TEST(EvolutionGraphTest, PaperFigure4aComponents) {
  TemporalGraph graph = BuildPaperGraph();
  EvolutionGraph evolution = MakeEvolutionGraph(graph, IntervalSet::Point(3, 0),
                                                IntervalSet::Point(3, 1));
  // Stability: u1, u2, u4 and edges (u1,u2), (u2,u4).
  EXPECT_EQ(evolution.stability.NodeCount(), 3u);
  EXPECT_EQ(evolution.stability.EdgeCount(), 2u);
  // Shrinkage (t0 − t1): u3 plus endpoints u1, u4; edges (u1,u3), (u3,u4).
  EXPECT_EQ(evolution.shrinkage.NodeCount(), 3u);
  EXPECT_EQ(evolution.shrinkage.EdgeCount(), 2u);
  // Growth (t1 − t0): edge (u1,u4) and its endpoints.
  EXPECT_EQ(evolution.growth.NodeCount(), 2u);
  EXPECT_EQ(evolution.growth.EdgeCount(), 1u);
  EXPECT_EQ(&evolution.ForEvent(EventType::kStability), &evolution.stability);
  EXPECT_EQ(&evolution.ForEvent(EventType::kGrowth), &evolution.growth);
  EXPECT_EQ(&evolution.ForEvent(EventType::kShrinkage), &evolution.shrinkage);
}

// --- Figure 4b: aggregation of the evolution graph -------------------------------

class PaperEvolutionAggregation : public ::testing::Test {
 protected:
  PaperEvolutionAggregation() : graph_(BuildPaperGraph()) {
    attrs_ = ResolveAttributes(graph_, {"gender", "publications"});
    aggregate_ = AggregateEvolution(graph_, IntervalSet::Point(3, 0),
                                    IntervalSet::Point(3, 1), attrs_);
  }

  TemporalGraph graph_;
  std::vector<AttrRef> attrs_;
  EvolutionAggregate aggregate_;
};

TEST_F(PaperEvolutionAggregation, NodeF1HasAllThreeWeights) {
  // The paper's worked example: node (f,1) has stability 1 (u2), growth 1
  // (u4 newly carries (f,1) at t1) and shrinkage 1 (u3's t0 appearance gone).
  EvolutionWeights weights = aggregate_.NodeWeights(GP(graph_, "f", "1"));
  EXPECT_EQ(weights.stability, 1);
  EXPECT_EQ(weights.growth, 1);
  EXPECT_EQ(weights.shrinkage, 1);
}

TEST_F(PaperEvolutionAggregation, AttributeChangesSplitIntoGrowthAndShrinkage) {
  // u1 moves (m,3) → (m,1): shrinkage of the old tuple, growth of the new.
  EXPECT_EQ(aggregate_.NodeWeights(GP(graph_, "m", "3")),
            (EvolutionWeights{0, 0, 1}));
  EXPECT_EQ(aggregate_.NodeWeights(GP(graph_, "m", "1")),
            (EvolutionWeights{0, 1, 0}));
  // u4 moves (f,2) → (f,1).
  EXPECT_EQ(aggregate_.NodeWeights(GP(graph_, "f", "2")),
            (EvolutionWeights{0, 0, 1}));
}

TEST_F(PaperEvolutionAggregation, EdgeTransitions) {
  auto weights = [&](const char* sg, const char* sp, const char* dg, const char* dp) {
    return aggregate_.EdgeWeights(GP(graph_, sg, sp), GP(graph_, dg, dp));
  };
  // (u1,u2) changes pair, (u1,u3) disappears → (m,3)->(f,1) shrinks twice.
  EXPECT_EQ(weights("m", "3", "f", "1"), (EvolutionWeights{0, 0, 2}));
  // (u1,u2)'s new pair and the new edge (u1,u4) → (m,1)->(f,1) grows twice.
  EXPECT_EQ(weights("m", "1", "f", "1"), (EvolutionWeights{0, 2, 0}));
  // (u2,u4) changes pair and (u3,u4) disappears → (f,1)->(f,2) shrinks twice.
  EXPECT_EQ(weights("f", "1", "f", "2"), (EvolutionWeights{0, 0, 2}));
  // (u2,u4)'s new pair → (f,1)->(f,1) grows once.
  EXPECT_EQ(weights("f", "1", "f", "1"), (EvolutionWeights{0, 1, 0}));
}

TEST_F(PaperEvolutionAggregation, AbsentTupleHasZeroWeights) {
  AttrRef g = *graph_.FindAttribute("gender");
  AttrTuple bogus;
  bogus.Append(*graph_.FindValueCode(g, "m"));
  bogus.Append(12345);
  EXPECT_EQ(aggregate_.NodeWeights(bogus), EvolutionWeights{});
}

// --- Static-attribute evolution -----------------------------------------------------

TEST(EvolutionStaticTest, GenderOnlyTransitions) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender"});
  EvolutionAggregate agg = AggregateEvolution(graph, IntervalSet::Point(3, 0),
                                              IntervalSet::Point(3, 1), attrs);
  // m: u1 present both sides → stable. f: u2, u4 stable; u3 shrinks.
  EXPECT_EQ(agg.NodeWeights(G(graph, "m")), (EvolutionWeights{1, 0, 0}));
  EXPECT_EQ(agg.NodeWeights(G(graph, "f")), (EvolutionWeights{2, 0, 1}));
}

TEST(EvolutionStaticTest, IntervalSides) {
  // Decade-style comparison: [t0,t1] vs t2, as in the paper's Fig 12 setup.
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender"});
  EvolutionAggregate agg = AggregateEvolution(graph, IntervalSet::Range(3, 0, 1),
                                              IntervalSet::Point(3, 2), attrs);
  // Old side: u1 (m), u2, u3, u4 (f). New side: u2, u4 (f), u5 (m).
  // m: u1 only old, u5 only new → shrink 1, grow 1.
  EXPECT_EQ(agg.NodeWeights(G(graph, "m")), (EvolutionWeights{0, 1, 1}));
  // f: u2, u4 stable; u3 shrinks.
  EXPECT_EQ(agg.NodeWeights(G(graph, "f")), (EvolutionWeights{2, 0, 1}));
}

// --- Filtered evolution (the Fig 12 mechanism) ---------------------------------------

TEST(EvolutionFilterTest, HighActivityFilter) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender"});
  AttrRef pubs = *graph.FindAttribute("publications");
  NodeTimeFilter filter = [&](NodeId n, TimeId t) {
    AttrValueId code = graph.ValueCodeAt(pubs, n, t);
    return code != kNoValue && std::stoi(graph.ValueName(pubs, code)) >= 2;
  };
  EvolutionAggregate agg = AggregateEvolution(graph, IntervalSet::Point(3, 0),
                                              IntervalSet::Point(3, 1), attrs, &filter);
  // Qualifying: u1@t0 (m, 3 pubs), u4@t0 (f, 2 pubs); nobody qualifies at t1.
  EXPECT_EQ(agg.NodeWeights(G(graph, "m")), (EvolutionWeights{0, 0, 1}));
  EXPECT_EQ(agg.NodeWeights(G(graph, "f")), (EvolutionWeights{0, 0, 1}));
}

// --- Component-wise aggregation -------------------------------------------------------

TEST(EvolutionComponentsTest, StaticGenderComponents) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender"});
  AggregationOptions options;
  EvolutionAggregate agg = AggregateEvolutionComponents(
      graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1), attrs, options);
  // Component semantics follow the operators verbatim: the shrinkage
  // component is the difference graph {u1, u3, u4} (endpoint rule!), so m
  // gains shrinkage weight 1 from u1 even though u1 survives.
  EXPECT_EQ(agg.NodeWeights(G(graph, "m")).stability, 1);
  EXPECT_EQ(agg.NodeWeights(G(graph, "m")).shrinkage, 1);
  EXPECT_EQ(agg.NodeWeights(G(graph, "f")).stability, 2);
  EXPECT_EQ(agg.NodeWeights(G(graph, "f")).shrinkage, 2);  // u3 and u4
  // Growth component = difference t1 − t0 = {u1, u4}.
  EXPECT_EQ(agg.NodeWeights(G(graph, "m")).growth, 1);
  EXPECT_EQ(agg.NodeWeights(G(graph, "f")).growth, 1);
}

TEST(EvolutionComponentsTest, EdgeWeightsMatchOperatorCounts) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender"});
  AggregationOptions options;
  EvolutionAggregate agg = AggregateEvolutionComponents(
      graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1), attrs, options);
  // Stable edges: (u1,u2) m→f, (u2,u4) f→f.
  EXPECT_EQ(agg.EdgeWeights(G(graph, "m"), G(graph, "f")).stability, 1);
  EXPECT_EQ(agg.EdgeWeights(G(graph, "f"), G(graph, "f")).stability, 1);
  // Shrinking edges: (u1,u3) m→f, (u3,u4) f→f.
  EXPECT_EQ(agg.EdgeWeights(G(graph, "m"), G(graph, "f")).shrinkage, 1);
  EXPECT_EQ(agg.EdgeWeights(G(graph, "f"), G(graph, "f")).shrinkage, 1);
  // Growing edge: (u1,u4) m→f.
  EXPECT_EQ(agg.EdgeWeights(G(graph, "m"), G(graph, "f")).growth, 1);
}


// --- RankEventGroups -----------------------------------------------------------------

TEST(RankEventGroupsTest, OrdersByWeightThenTuple) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender", "publications"});
  TopEventGroups shrinkage =
      RankEventGroups(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1), attrs,
                      EventType::kShrinkage, 10);
  // Node shrinkage weights: (m,3)=1, (f,1)=1, (f,2)=1 — all weight 1,
  // deterministic tuple tie-break.
  ASSERT_EQ(shrinkage.nodes.size(), 3u);
  for (const RankedNodeGroup& group : shrinkage.nodes) {
    EXPECT_EQ(group.weight, 1);
  }
  // Edge shrinkage: (m,3)->(f,1)=2 and (f,1)->(f,2)=2 lead.
  ASSERT_GE(shrinkage.edges.size(), 2u);
  EXPECT_EQ(shrinkage.edges[0].weight, 2);
  EXPECT_EQ(shrinkage.edges[1].weight, 2);
}

TEST(RankEventGroupsTest, RespectsTopK) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender", "publications"});
  TopEventGroups top1 =
      RankEventGroups(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1), attrs,
                      EventType::kShrinkage, 1);
  EXPECT_EQ(top1.nodes.size(), 1u);
  EXPECT_EQ(top1.edges.size(), 1u);
}

TEST(RankEventGroupsTest, OmitsZeroWeightGroups) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender"});
  TopEventGroups growth =
      RankEventGroups(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1), attrs,
                      EventType::kGrowth, 10);
  // Gender-only node transitions t0→t1: nobody newly appears → no groups.
  EXPECT_TRUE(growth.nodes.empty());
}

TEST(RankEventGroupsTest, DeterministicAcrossCalls) {
  TemporalGraph graph = testing::BuildRandomGraph(31, 30, 6);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color", "level"});
  TopEventGroups first =
      RankEventGroups(graph, IntervalSet::Range(6, 0, 2), IntervalSet::Range(6, 3, 5),
                      attrs, EventType::kGrowth, 5);
  TopEventGroups second =
      RankEventGroups(graph, IntervalSet::Range(6, 0, 2), IntervalSet::Range(6, 3, 5),
                      attrs, EventType::kGrowth, 5);
  EXPECT_EQ(first.nodes, second.nodes);
  EXPECT_EQ(first.edges, second.edges);
}

}  // namespace
}  // namespace graphtempo
