#include "core/measures.h"

#include <gtest/gtest.h>

#include "core/operators.h"
#include "datagen/contact_gen.h"
#include "test_graphs.h"

namespace graphtempo {
namespace {

using testing::BuildPaperGraph;

/// Paper graph extended with a time-varying edge attribute "papers" (number
/// of joint papers behind each collaboration-year) and a static edge
/// attribute "venue".
TemporalGraph BuildMeasuredPaperGraph() {
  TemporalGraph graph = BuildPaperGraph();
  std::uint32_t papers = graph.AddTimeVaryingEdgeAttribute("papers");
  std::uint32_t venue = graph.AddStaticEdgeAttribute("venue");
  auto edge = [&](const char* src, const char* dst) {
    return *graph.FindEdge(*graph.FindNode(src), *graph.FindNode(dst));
  };
  // (u1,u2): 2 papers at t0, 1 at t1. (u2,u4): 1 each year. (u1,u3): 3 at t0.
  graph.SetTimeVaryingEdgeValue(papers, edge("u1", "u2"), 0, "2");
  graph.SetTimeVaryingEdgeValue(papers, edge("u1", "u2"), 1, "1");
  graph.SetTimeVaryingEdgeValue(papers, edge("u2", "u4"), 0, "1");
  graph.SetTimeVaryingEdgeValue(papers, edge("u2", "u4"), 1, "1");
  graph.SetTimeVaryingEdgeValue(papers, edge("u2", "u4"), 2, "1");
  graph.SetTimeVaryingEdgeValue(papers, edge("u1", "u3"), 0, "3");
  graph.SetStaticEdgeValue(venue, edge("u1", "u2"), "edbt");
  graph.SetStaticEdgeValue(venue, edge("u2", "u4"), "vldb");
  return graph;
}

AttrTuple G(const TemporalGraph& graph, const std::string& gender) {
  AttrRef g = *graph.FindAttribute("gender");
  AttrTuple tuple;
  tuple.Append(*graph.FindValueCode(g, gender));
  return tuple;
}

TEST(MeasureFunctionTest, Names) {
  EXPECT_STREQ(MeasureFunctionName(MeasureFunction::kSum), "sum");
  EXPECT_STREQ(MeasureFunctionName(MeasureFunction::kMin), "min");
  EXPECT_STREQ(MeasureFunctionName(MeasureFunction::kMax), "max");
  EXPECT_STREQ(MeasureFunctionName(MeasureFunction::kAvg), "avg");
  EXPECT_STREQ(MeasureFunctionName(MeasureFunction::kCount), "count");
}

TEST(EdgeAttributeTest, StorageAndLookup) {
  TemporalGraph graph = BuildMeasuredPaperGraph();
  std::optional<EdgeAttrRef> papers = graph.FindEdgeAttribute("papers");
  ASSERT_TRUE(papers.has_value());
  EXPECT_EQ(papers->kind, EdgeAttrRef::Kind::kTimeVarying);
  std::optional<EdgeAttrRef> venue = graph.FindEdgeAttribute("venue");
  ASSERT_TRUE(venue.has_value());
  EXPECT_EQ(venue->kind, EdgeAttrRef::Kind::kStatic);
  EXPECT_EQ(graph.FindEdgeAttribute("nope"), std::nullopt);
  EXPECT_EQ(graph.edge_attribute_name(*papers), "papers");

  EdgeId e = *graph.FindEdge(*graph.FindNode("u1"), *graph.FindNode("u2"));
  EXPECT_EQ(graph.EdgeValueName(*papers, graph.EdgeValueCodeAt(*papers, e, 0)), "2");
  EXPECT_EQ(graph.EdgeValueName(*venue, graph.EdgeValueCodeAt(*venue, e, 2)), "edbt");
  EdgeId unset = *graph.FindEdge(*graph.FindNode("u4"), *graph.FindNode("u5"));
  EXPECT_EQ(graph.EdgeValueCodeAt(*papers, unset, 2), kNoValue);
}

TEST(EdgeAttributeTest, AttributesAddedAfterEdgesCoverThem) {
  TemporalGraph graph(std::vector<std::string>{"t0"});
  NodeId a = graph.AddNode("a");
  NodeId b = graph.AddNode("b");
  EdgeId e = graph.GetOrAddEdge(a, b);
  std::uint32_t attr = graph.AddStaticEdgeAttribute("late");
  graph.SetStaticEdgeValue(attr, e, "v");
  EXPECT_EQ(graph.static_edge_attribute(attr).ValueAt(e), "v");
}

TEST(EdgeAttributeDeath, DuplicateNameAborts) {
  TemporalGraph graph(std::vector<std::string>{"t0"});
  graph.AddStaticEdgeAttribute("w");
  EXPECT_DEATH(graph.AddTimeVaryingEdgeAttribute("w"), "duplicate");
}

// --- Edge measures -------------------------------------------------------------

class EdgeMeasureTest : public ::testing::Test {
 protected:
  EdgeMeasureTest() : graph_(BuildMeasuredPaperGraph()) {
    group_ = ResolveAttributes(graph_, {"gender"});
    papers_ = *graph_.FindEdgeAttribute("papers");
  }

  EdgeMeasureMap Measure(const GraphView& view, MeasureFunction function) {
    return AggregateEdgeMeasure(graph_, view, group_, papers_, function);
  }

  TemporalGraph graph_;
  std::vector<AttrRef> group_;
  EdgeAttrRef papers_;
};

TEST_F(EdgeMeasureTest, SumOverUnion) {
  GraphView view = UnionOp(graph_, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1));
  EdgeMeasureMap measures = Measure(view, MeasureFunction::kSum);
  // m→f appearances with values: (u1,u2)@t0=2, @t1=1, (u1,u3)@t0=3 → sum 6.
  AttrTuplePair mf{G(graph_, "m"), G(graph_, "f")};
  ASSERT_TRUE(measures.count(mf));
  EXPECT_DOUBLE_EQ(measures.at(mf).value, 6.0);
  EXPECT_EQ(measures.at(mf).samples, 3);
  // f→f: (u2,u4)@t0=1, @t1=1 → 2. ((u3,u4) has no papers value → skipped.)
  AttrTuplePair ff{G(graph_, "f"), G(graph_, "f")};
  EXPECT_DOUBLE_EQ(measures.at(ff).value, 2.0);
  EXPECT_EQ(measures.at(ff).samples, 2);
}

TEST_F(EdgeMeasureTest, MinMaxAvg) {
  GraphView view = UnionOp(graph_, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1));
  AttrTuplePair mf{G(graph_, "m"), G(graph_, "f")};
  EXPECT_DOUBLE_EQ(Measure(view, MeasureFunction::kMin).at(mf).value, 1.0);
  EXPECT_DOUBLE_EQ(Measure(view, MeasureFunction::kMax).at(mf).value, 3.0);
  EXPECT_DOUBLE_EQ(Measure(view, MeasureFunction::kAvg).at(mf).value, 2.0);
  EXPECT_DOUBLE_EQ(Measure(view, MeasureFunction::kCount).at(mf).value, 3.0);
}

TEST_F(EdgeMeasureTest, RespectsViewInterval) {
  GraphView view = Project(graph_, IntervalSet::Point(3, 0));
  EdgeMeasureMap measures = Measure(view, MeasureFunction::kSum);
  AttrTuplePair mf{G(graph_, "m"), G(graph_, "f")};
  EXPECT_DOUBLE_EQ(measures.at(mf).value, 5.0);  // 2 + 3, no t1 contribution
}

TEST_F(EdgeMeasureTest, CountMatchesAllSemanticsAggregation) {
  // With every appearance carrying a value, COUNT equals ALL edge weights.
  TemporalGraph graph = BuildPaperGraph();
  std::uint32_t weight = graph.AddTimeVaryingEdgeAttribute("w");
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    for (TimeId t = 0; t < 3; ++t) {
      if (graph.EdgePresentAt(e, t)) graph.SetTimeVaryingEdgeValue(weight, e, t, "1");
    }
  }
  std::vector<AttrRef> group = ResolveAttributes(graph, {"gender"});
  GraphView view = UnionOp(graph, IntervalSet::Range(3, 0, 2), IntervalSet::Range(3, 0, 2));
  EdgeMeasureMap counts = AggregateEdgeMeasure(graph, view, group,
                                               *graph.FindEdgeAttribute("w"),
                                               MeasureFunction::kCount);
  AggregateGraph all = Aggregate(graph, view, group, AggregationSemantics::kAll);
  all.ForEachEdge(
      [&](const AttrTuple& src, const AttrTuple& dst, const auto& weight_value) {
    const AttrTuplePair pair{src, dst};
    ASSERT_TRUE(counts.count(pair));
    EXPECT_DOUBLE_EQ(counts.at(pair).value, static_cast<double>(weight_value));
  });
}

TEST(EdgeMeasureDeath, NonNumericValueAborts) {
  TemporalGraph graph = BuildPaperGraph();
  std::uint32_t attr = graph.AddStaticEdgeAttribute("label");
  graph.SetStaticEdgeValue(attr, 0, "not-a-number");
  std::vector<AttrRef> group = ResolveAttributes(graph, {"gender"});
  GraphView view = Project(graph, IntervalSet::Point(3, 0));
  EXPECT_DEATH(AggregateEdgeMeasure(graph, view, group, *graph.FindEdgeAttribute("label"),
                                    MeasureFunction::kSum),
               "not numeric");
}

// --- Node measures ---------------------------------------------------------------

TEST(NodeMeasureTest, SumOfPublicationsByGender) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> group = ResolveAttributes(graph, {"gender"});
  AttrRef pubs = *graph.FindAttribute("publications");
  GraphView view = UnionOp(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1));
  NodeMeasureMap sums =
      AggregateNodeMeasure(graph, view, group, pubs, MeasureFunction::kSum);
  // m: u1 3+1 = 4. f: u2 1+1, u3 1, u4 2+1 → 6.
  EXPECT_DOUBLE_EQ(sums.at(G(graph, "m")).value, 4.0);
  EXPECT_DOUBLE_EQ(sums.at(G(graph, "f")).value, 6.0);
  NodeMeasureMap maxima =
      AggregateNodeMeasure(graph, view, group, pubs, MeasureFunction::kMax);
  EXPECT_DOUBLE_EQ(maxima.at(G(graph, "m")).value, 3.0);
  EXPECT_DOUBLE_EQ(maxima.at(G(graph, "f")).value, 2.0);
}

// --- End-to-end on the contact network ----------------------------------------------

TEST(ContactDurationTest, SameClassContactLastsLonger) {
  datagen::ContactOptions options;
  TemporalGraph graph = datagen::GenerateContactNetwork(options);
  std::optional<EdgeAttrRef> duration = graph.FindEdgeAttribute("duration");
  ASSERT_TRUE(duration.has_value());
  std::vector<AttrRef> by_class = ResolveAttributes(graph, {"class"});
  GraphView day1 = Project(graph, IntervalSet::Point(graph.num_times(), 0));
  EdgeMeasureMap avg =
      AggregateEdgeMeasure(graph, day1, by_class, *duration, MeasureFunction::kAvg);
  double same_total = 0.0;
  int same_groups = 0;
  double cross_total = 0.0;
  int cross_groups = 0;
  for (const auto& [pair, measure] : avg) {
    if (pair.src == pair.dst) {
      same_total += measure.value;
      ++same_groups;
    } else {
      cross_total += measure.value;
      ++cross_groups;
    }
  }
  ASSERT_GT(same_groups, 0);
  ASSERT_GT(cross_groups, 0);
  EXPECT_GT(same_total / same_groups, 3.0 * cross_total / cross_groups);
}

}  // namespace
}  // namespace graphtempo
