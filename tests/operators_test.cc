#include "core/operators.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "test_graphs.h"

namespace graphtempo {
namespace {

using testing::BuildPaperGraph;
using testing::BuildRandomGraph;

std::vector<std::string> NodeLabels(const TemporalGraph& graph, const GraphView& view) {
  std::vector<std::string> labels;
  for (NodeId n : view.nodes) labels.push_back(graph.node_label(n));
  return labels;
}

std::vector<std::pair<std::string, std::string>> EdgeLabels(const TemporalGraph& graph,
                                                            const GraphView& view) {
  std::vector<std::pair<std::string, std::string>> labels;
  for (EdgeId e : view.edges) {
    auto [src, dst] = graph.edge(e);
    labels.emplace_back(graph.node_label(src), graph.node_label(dst));
  }
  return labels;
}

// --- Project (Def 2.2) --------------------------------------------------------

TEST(ProjectTest, SnapshotAtOnePoint) {
  TemporalGraph graph = BuildPaperGraph();
  GraphView view = Project(graph, IntervalSet::Point(3, 0));
  EXPECT_EQ(NodeLabels(graph, view), (std::vector<std::string>{"u1", "u2", "u3", "u4"}));
  EXPECT_EQ(view.EdgeCount(), 4u);
  EXPECT_EQ(view.times, IntervalSet::Point(3, 0));
}

TEST(ProjectTest, RequiresPresenceThroughoutInterval) {
  TemporalGraph graph = BuildPaperGraph();
  GraphView view = Project(graph, IntervalSet::Range(3, 0, 1));
  // Nodes present at BOTH t0 and t1: u1, u2, u4.
  EXPECT_EQ(NodeLabels(graph, view), (std::vector<std::string>{"u1", "u2", "u4"}));
  // Edges present at both: (u1,u2), (u2,u4).
  EXPECT_EQ(view.EdgeCount(), 2u);
}

TEST(ProjectTest, FullDomainKeepsOnlyAlwaysPresent) {
  TemporalGraph graph = BuildPaperGraph();
  GraphView view = Project(graph, IntervalSet::All(3));
  EXPECT_EQ(NodeLabels(graph, view), (std::vector<std::string>{"u2", "u4"}));
  EXPECT_EQ(EdgeLabels(graph, view),
            (std::vector<std::pair<std::string, std::string>>{{"u2", "u4"}}));
}

// --- Union (Def 2.3, Fig 2) ---------------------------------------------------

TEST(UnionTest, PaperFigure2) {
  TemporalGraph graph = BuildPaperGraph();
  GraphView view = UnionOp(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1));
  // The union graph on (t0, t1) holds u1..u4 and all edges alive at t0 or t1.
  EXPECT_EQ(NodeLabels(graph, view), (std::vector<std::string>{"u1", "u2", "u3", "u4"}));
  auto edges = EdgeLabels(graph, view);
  EXPECT_EQ(edges.size(), 5u);
  EXPECT_TRUE(std::count(edges.begin(), edges.end(), std::make_pair(std::string("u1"),
                                                                    std::string("u4"))));
  EXPECT_EQ(view.times, IntervalSet::Range(3, 0, 1));
}

TEST(UnionTest, WithSelfIsIdentityOnPresentEntities) {
  TemporalGraph graph = BuildPaperGraph();
  IntervalSet t2 = IntervalSet::Point(3, 2);
  GraphView view = UnionOp(graph, t2, t2);
  EXPECT_EQ(NodeLabels(graph, view), (std::vector<std::string>{"u2", "u4", "u5"}));
  EXPECT_EQ(view.EdgeCount(), 3u);
}

TEST(UnionTest, IsSymmetric) {
  TemporalGraph graph = BuildRandomGraph(11, 30, 6);
  IntervalSet a = IntervalSet::Range(6, 0, 2);
  IntervalSet b = IntervalSet::Range(6, 3, 5);
  GraphView ab = UnionOp(graph, a, b);
  GraphView ba = UnionOp(graph, b, a);
  EXPECT_EQ(ab.nodes, ba.nodes);
  EXPECT_EQ(ab.edges, ba.edges);
  EXPECT_EQ(ab.times, ba.times);
}

// --- Intersection (Def 2.4) ---------------------------------------------------

TEST(IntersectionTest, PaperT0T1) {
  TemporalGraph graph = BuildPaperGraph();
  GraphView view =
      IntersectionOp(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1));
  EXPECT_EQ(NodeLabels(graph, view), (std::vector<std::string>{"u1", "u2", "u4"}));
  EXPECT_EQ(EdgeLabels(graph, view), (std::vector<std::pair<std::string, std::string>>{
                                         {"u1", "u2"}, {"u2", "u4"}}));
  // Defined on T1 ∪ T2 (Def 2.4).
  EXPECT_EQ(view.times, IntervalSet::Range(3, 0, 1));
}

TEST(IntersectionTest, DisjointLifetimesGiveEmptyGraph) {
  TemporalGraph graph = BuildPaperGraph();
  // u3 lives only at t0, u5 only at t2; their edge sets never overlap there.
  GraphView view =
      IntersectionOp(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 2));
  // Nodes present at t0 AND t2: u2, u4.
  EXPECT_EQ(NodeLabels(graph, view), (std::vector<std::string>{"u2", "u4"}));
  EXPECT_EQ(EdgeLabels(graph, view), (std::vector<std::pair<std::string, std::string>>{
                                         {"u2", "u4"}}));
}

TEST(IntersectionTest, ExistentialWithinEachSide) {
  // Def 2.4 requires ≥1 time point in each T, not full containment.
  TemporalGraph graph = BuildPaperGraph();
  GraphView view =
      IntersectionOp(graph, IntervalSet::Range(3, 0, 1), IntervalSet::Point(3, 2));
  // u3 exists in [t0,t1] (at t0) but not at t2; u5 exists at t2 only.
  EXPECT_EQ(NodeLabels(graph, view), (std::vector<std::string>{"u2", "u4"}));
}

// --- Difference (Def 2.5) -----------------------------------------------------

TEST(DifferenceTest, PaperT0MinusT1) {
  TemporalGraph graph = BuildPaperGraph();
  GraphView view =
      DifferenceOp(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1));
  // Deleted edges: (u1,u3), (u3,u4). Deleted node: u3; u1 and u4 survive but
  // are endpoints of deleted edges, so Def 2.5 includes them too.
  EXPECT_EQ(NodeLabels(graph, view), (std::vector<std::string>{"u1", "u3", "u4"}));
  EXPECT_EQ(EdgeLabels(graph, view), (std::vector<std::pair<std::string, std::string>>{
                                         {"u1", "u3"}, {"u3", "u4"}}));
  // Defined on T1 (the earlier interval).
  EXPECT_EQ(view.times, IntervalSet::Point(3, 0));
}

TEST(DifferenceTest, PaperT1MinusT0) {
  TemporalGraph graph = BuildPaperGraph();
  GraphView view =
      DifferenceOp(graph, IntervalSet::Point(3, 1), IntervalSet::Point(3, 0));
  // New edge at t1: (u1,u4). No node is new at t1, but both endpoints of the
  // new edge enter the difference graph.
  EXPECT_EQ(NodeLabels(graph, view), (std::vector<std::string>{"u1", "u4"}));
  EXPECT_EQ(EdgeLabels(graph, view), (std::vector<std::pair<std::string, std::string>>{
                                         {"u1", "u4"}}));
  EXPECT_EQ(view.times, IntervalSet::Point(3, 1));
}

TEST(DifferenceTest, IsNotSymmetric) {
  TemporalGraph graph = BuildPaperGraph();
  GraphView forward =
      DifferenceOp(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1));
  GraphView backward =
      DifferenceOp(graph, IntervalSet::Point(3, 1), IntervalSet::Point(3, 0));
  EXPECT_NE(forward.nodes, backward.nodes);
  EXPECT_NE(forward.edges, backward.edges);
}

TEST(DifferenceTest, SelfDifferenceIsEmpty) {
  TemporalGraph graph = BuildPaperGraph();
  IntervalSet t0 = IntervalSet::Point(3, 0);
  GraphView view = DifferenceOp(graph, t0, t0);
  EXPECT_TRUE(view.nodes.empty());
  EXPECT_TRUE(view.edges.empty());
}

// --- Cross-operator algebra on random graphs ----------------------------------

class OperatorAlgebraTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OperatorAlgebraTest, IntersectionIsContainedInUnion) {
  TemporalGraph graph = BuildRandomGraph(GetParam(), 40, 8);
  IntervalSet a = IntervalSet::Range(8, 0, 3);
  IntervalSet b = IntervalSet::Range(8, 4, 7);
  GraphView union_view = UnionOp(graph, a, b);
  GraphView inter_view = IntersectionOp(graph, a, b);
  EXPECT_TRUE(std::includes(union_view.nodes.begin(), union_view.nodes.end(),
                            inter_view.nodes.begin(), inter_view.nodes.end()));
  EXPECT_TRUE(std::includes(union_view.edges.begin(), union_view.edges.end(),
                            inter_view.edges.begin(), inter_view.edges.end()));
}

TEST_P(OperatorAlgebraTest, EdgePartition) {
  // Every union edge is exactly one of: in both sides (∩), only old (old−new),
  // only new (new−old).
  TemporalGraph graph = BuildRandomGraph(GetParam(), 40, 8);
  IntervalSet a = IntervalSet::Range(8, 0, 3);
  IntervalSet b = IntervalSet::Range(8, 4, 7);
  GraphView union_view = UnionOp(graph, a, b);
  GraphView inter_view = IntersectionOp(graph, a, b);
  GraphView old_minus = DifferenceOp(graph, a, b);
  GraphView new_minus = DifferenceOp(graph, b, a);
  EXPECT_EQ(union_view.edges.size(),
            inter_view.edges.size() + old_minus.edges.size() + new_minus.edges.size());
  for (EdgeId e : inter_view.edges) {
    EXPECT_FALSE(std::binary_search(old_minus.edges.begin(), old_minus.edges.end(), e));
    EXPECT_FALSE(std::binary_search(new_minus.edges.begin(), new_minus.edges.end(), e));
  }
}

TEST_P(OperatorAlgebraTest, ProjectIsSubsetOfUnionOnSameInterval) {
  TemporalGraph graph = BuildRandomGraph(GetParam(), 40, 8);
  IntervalSet interval = IntervalSet::Range(8, 2, 5);
  GraphView projected = Project(graph, interval);
  GraphView unioned = UnionOp(graph, interval, interval);
  EXPECT_TRUE(std::includes(unioned.nodes.begin(), unioned.nodes.end(),
                            projected.nodes.begin(), projected.nodes.end()));
  EXPECT_TRUE(std::includes(unioned.edges.begin(), unioned.edges.end(),
                            projected.edges.begin(), projected.edges.end()));
}

TEST_P(OperatorAlgebraTest, EveryViewEntityExistsInItsInterval) {
  TemporalGraph graph = BuildRandomGraph(GetParam(), 40, 8);
  IntervalSet a = IntervalSet::Range(8, 1, 2);
  IntervalSet b = IntervalSet::Range(8, 5, 6);
  for (const GraphView& view : {UnionOp(graph, a, b), IntersectionOp(graph, a, b),
                                DifferenceOp(graph, a, b)}) {
    for (NodeId n : view.nodes) {
      EXPECT_TRUE(graph.NodeTimes(n).Intersects(view.times))
          << "node " << n << " has no presence in the view interval";
    }
    for (EdgeId e : view.edges) {
      EXPECT_TRUE(graph.EdgeTimes(e).Intersects(view.times));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperatorAlgebraTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(OperatorDeath, DomainMismatchAborts) {
  TemporalGraph graph = BuildPaperGraph();
  EXPECT_DEATH(Project(graph, IntervalSet::Point(4, 0)), "different time domain");
}

}  // namespace
}  // namespace graphtempo
