#include "core/aggregation.h"

#include <gtest/gtest.h>

#include "core/operators.h"
#include "reference_impl.h"
#include "test_graphs.h"

namespace graphtempo {
namespace {

using testing::BuildPaperGraph;
using testing::BuildRandomGraph;

/// Builds the tuple for string values under the paper graph's (gender,
/// publications) attributes.
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

// --- AttrTuple basics ----------------------------------------------------------

TEST(AttrTupleTest, EqualityAndHash) {
  AttrTuple a = AttrTuple::Of({1, 2});
  AttrTuple b = AttrTuple::Of({1, 2});
  AttrTuple c = AttrTuple::Of({2, 1});
  AttrTuple d = AttrTuple::Of({1});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(a[1], 2u);
}

TEST(AttrTupleDeath, OverflowAborts) {
  AttrTuple tuple;
  for (std::size_t i = 0; i < AttrTuple::kMaxAttrs; ++i) tuple.Append(1);
  EXPECT_DEATH(tuple.Append(1), "too many");
}

// --- AggregateGraph container ----------------------------------------------------

TEST(AggregateGraphTest, WeightsAccumulate) {
  AttrTuple a = AttrTuple::Of({1});
  AttrTuple b = AttrTuple::Of({2});
  AggregateGraph agg =
      testing::MakeAggregate({{a, 2}, {a, 3}, {b, 1}}, {{{a, b}, 4}, {{a, b}, 1}});
  EXPECT_EQ(agg.NodeWeight(a), 5);
  EXPECT_EQ(agg.NodeWeight(b), 1);
  EXPECT_EQ(agg.NodeWeight(AttrTuple::Of({9})), 0);
  EXPECT_EQ(agg.EdgeWeight(a, b), 5);
  EXPECT_EQ(agg.EdgeWeight(b, a), 0);
  EXPECT_EQ(agg.NodeCount(), 2u);
  EXPECT_EQ(agg.EdgeCount(), 1u);
  EXPECT_EQ(agg.TotalNodeWeight(), 6);
  EXPECT_EQ(agg.TotalEdgeWeight(), 5);
}

// --- Paper Figure 3: per-time-point aggregates -----------------------------------

class PaperTimePointAggregation : public ::testing::Test {
 protected:
  PaperTimePointAggregation() : graph_(BuildPaperGraph()) {
    attrs_ = ResolveAttributes(graph_, {"gender", "publications"});
  }

  AggregateGraph AggregateAt(TimeId t, AggregationSemantics semantics) {
    GraphView snapshot = Project(graph_, IntervalSet::Point(3, t));
    return Aggregate(graph_, snapshot, attrs_, semantics);
  }

  TemporalGraph graph_;
  std::vector<AttrRef> attrs_;
};

TEST_F(PaperTimePointAggregation, Figure3aAtT0) {
  AggregateGraph agg = AggregateAt(0, AggregationSemantics::kDistinct);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "m", "3")), 1);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "f", "1")), 2);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "f", "2")), 1);
  EXPECT_EQ(agg.NodeCount(), 3u);
  EXPECT_EQ(agg.EdgeWeight(GP(graph_, "m", "3"), GP(graph_, "f", "1")), 2);
  EXPECT_EQ(agg.EdgeWeight(GP(graph_, "f", "1"), GP(graph_, "f", "2")), 2);
  EXPECT_EQ(agg.EdgeCount(), 2u);
}

TEST_F(PaperTimePointAggregation, Figure3bAtT1) {
  AggregateGraph agg = AggregateAt(1, AggregationSemantics::kDistinct);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "m", "1")), 1);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "f", "1")), 2);
  EXPECT_EQ(agg.NodeCount(), 2u);
  EXPECT_EQ(agg.EdgeWeight(GP(graph_, "m", "1"), GP(graph_, "f", "1")), 2);
  EXPECT_EQ(agg.EdgeWeight(GP(graph_, "f", "1"), GP(graph_, "f", "1")), 1);
}

TEST_F(PaperTimePointAggregation, Figure3cAtT2) {
  AggregateGraph agg = AggregateAt(2, AggregationSemantics::kDistinct);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "f", "1")), 2);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "m", "3")), 1);
  EXPECT_EQ(agg.EdgeWeight(GP(graph_, "f", "1"), GP(graph_, "f", "1")), 1);
  EXPECT_EQ(agg.EdgeWeight(GP(graph_, "f", "1"), GP(graph_, "m", "3")), 2);
}

TEST_F(PaperTimePointAggregation, DistEqualsAllOnASingleTimePoint) {
  // "As we consider aggregate graphs on a time point…, there is no difference
  // between DIST and ALL" (paper, discussion of Fig 3).
  for (TimeId t = 0; t < 3; ++t) {
    EXPECT_EQ(AggregateAt(t, AggregationSemantics::kDistinct),
              AggregateAt(t, AggregationSemantics::kAll))
        << "time point " << t;
  }
}

// --- Paper Figures 3d/3e: union aggregates ---------------------------------------

class PaperUnionAggregation : public ::testing::Test {
 protected:
  PaperUnionAggregation() : graph_(BuildPaperGraph()) {
    attrs_ = ResolveAttributes(graph_, {"gender", "publications"});
    view_ = UnionOp(graph_, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1));
  }

  TemporalGraph graph_;
  std::vector<AttrRef> attrs_;
  GraphView view_;
};

TEST_F(PaperUnionAggregation, Figure3dDistinct) {
  AggregateGraph agg = Aggregate(graph_, view_, attrs_, AggregationSemantics::kDistinct);
  // The paper's headline example: (f,1) has DIST weight 3.
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "f", "1")), 3);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "m", "3")), 1);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "m", "1")), 1);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "f", "2")), 1);
  EXPECT_EQ(agg.EdgeWeight(GP(graph_, "m", "3"), GP(graph_, "f", "1")), 2);
  EXPECT_EQ(agg.EdgeWeight(GP(graph_, "m", "1"), GP(graph_, "f", "1")), 2);
  EXPECT_EQ(agg.EdgeWeight(GP(graph_, "f", "1"), GP(graph_, "f", "2")), 2);
  EXPECT_EQ(agg.EdgeWeight(GP(graph_, "f", "1"), GP(graph_, "f", "1")), 1);
}

TEST_F(PaperUnionAggregation, Figure3eAll) {
  AggregateGraph agg = Aggregate(graph_, view_, attrs_, AggregationSemantics::kAll);
  // …and ALL weight 4 (u2 twice, u3 once, u4 once).
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "f", "1")), 4);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "m", "3")), 1);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "m", "1")), 1);
  EXPECT_EQ(agg.NodeWeight(GP(graph_, "f", "2")), 1);
}

// --- Static-attribute aggregation and its fast path -------------------------------

TEST(StaticAggregationTest, GenderOnlyUnion) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender"});
  GraphView view = UnionOp(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1));

  AggregateGraph dist = Aggregate(graph, view, attrs, AggregationSemantics::kDistinct);
  EXPECT_EQ(dist.NodeWeight(G(graph, "m")), 1);
  EXPECT_EQ(dist.NodeWeight(G(graph, "f")), 3);
  EXPECT_EQ(dist.EdgeWeight(G(graph, "m"), G(graph, "f")), 3);
  EXPECT_EQ(dist.EdgeWeight(G(graph, "f"), G(graph, "f")), 2);

  AggregateGraph all = Aggregate(graph, view, attrs, AggregationSemantics::kAll);
  EXPECT_EQ(all.NodeWeight(G(graph, "m")), 2);   // u1 at t0 and t1
  EXPECT_EQ(all.NodeWeight(G(graph, "f")), 5);   // u2×2, u3×1, u4×2
  EXPECT_EQ(all.EdgeWeight(G(graph, "m"), G(graph, "f")), 4);
  EXPECT_EQ(all.EdgeWeight(G(graph, "f"), G(graph, "f")), 3);
}

class FastPathEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastPathEquivalence, StaticFastPathMatchesGeneralPath) {
  TemporalGraph graph = BuildRandomGraph(GetParam(), 50, 7);
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  for (auto semantics : {AggregationSemantics::kDistinct, AggregationSemantics::kAll}) {
    AggregationOptions options;
    options.semantics = semantics;
    for (const GraphView& view :
         {UnionOp(graph, IntervalSet::Range(7, 0, 2), IntervalSet::Range(7, 3, 6)),
          IntersectionOp(graph, IntervalSet::Range(7, 0, 3), IntervalSet::Range(7, 2, 6)),
          DifferenceOp(graph, IntervalSet::Range(7, 0, 2), IntervalSet::Range(7, 3, 6)),
          Project(graph, IntervalSet::Point(7, 4))}) {
      EXPECT_EQ(Aggregate(graph, view, attrs, options),
                testing::RefAggregate(graph, view, attrs, options.semantics));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathEquivalence, ::testing::Values(3, 7, 11, 19, 23));

// --- Mixed static + time-varying ---------------------------------------------------

TEST(MixedAggregationTest, TimeVaryingValuesResolvedPerTimePoint) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"publications"});
  GraphView view = UnionOp(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 2));
  AttrRef pubs = attrs[0];
  AttrTuple one = AttrTuple::Of({*graph.FindValueCode(pubs, "1")});
  AttrTuple three = AttrTuple::Of({*graph.FindValueCode(pubs, "3")});
  AggregateGraph dist = Aggregate(graph, view, attrs, AggregationSemantics::kDistinct);
  // "1": u2 (t0 and t2, one distinct appearance), u3 (t0), u4 (t2) → 3.
  EXPECT_EQ(dist.NodeWeight(one), 3);
  // "3": u1 (t0), u5 (t2) → 2.
  EXPECT_EQ(dist.NodeWeight(three), 2);
}

// --- Filters ------------------------------------------------------------------------

TEST(FilteredAggregationTest, FilterHidesAppearances) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender"});
  AttrRef pubs = *graph.FindAttribute("publications");
  // Keep only appearances with more than one publication.
  NodeTimeFilter filter = [&](NodeId n, TimeId t) {
    AttrValueId code = graph.ValueCodeAt(pubs, n, t);
    if (code == kNoValue) return false;
    return std::stoi(graph.ValueName(pubs, code)) > 1;
  };
  AggregationOptions options;
  options.filter = &filter;
  GraphView view = UnionOp(graph, IntervalSet::Point(3, 0), IntervalSet::Point(3, 1));
  AggregateGraph agg = Aggregate(graph, view, attrs, options);
  // Qualifying appearances: u1@t0 (3 pubs, m), u4@t0 (2 pubs, f).
  EXPECT_EQ(agg.NodeWeight(G(graph, "m")), 1);
  EXPECT_EQ(agg.NodeWeight(G(graph, "f")), 1);
  // No edge has BOTH endpoints above the bar at the same time point:
  // at t0, (u1,u2): u2 has 1 pub; (u3,u4): u3 has 1 pub.
  EXPECT_EQ(agg.EdgeCount(), 0u);
}


// --- Missing values --------------------------------------------------------------

TEST(MissingValueAggregationTest, UnsetValuesGroupUnderTheSentinel) {
  // A node present at a time where a time-varying attribute was never
  // assigned groups under kNoValue rather than being dropped.
  TemporalGraph graph(std::vector<std::string>{"t0", "t1"});
  std::uint32_t level = graph.AddTimeVaryingAttribute("level");
  NodeId a = graph.AddNode("a");
  NodeId b = graph.AddNode("b");
  graph.SetNodePresent(a, 0);
  graph.SetNodePresent(b, 0);
  graph.SetTimeVaryingValue(level, a, 0, "x");  // b stays unset

  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"level"});
  GraphView view = Project(graph, IntervalSet::Point(2, 0));
  AggregateGraph agg = Aggregate(graph, view, attrs, AggregationSemantics::kDistinct);
  AttrTuple x = AttrTuple::Of({*graph.FindValueCode(attrs[0], "x")});
  AttrTuple missing = AttrTuple::Of({kNoValue});
  EXPECT_EQ(agg.NodeWeight(x), 1);
  EXPECT_EQ(agg.NodeWeight(missing), 1);
  EXPECT_EQ(agg.TotalNodeWeight(), 2);
}

TEST(MissingValueAggregationTest, UnsetStaticValuesGroupTogether) {
  TemporalGraph graph(std::vector<std::string>{"t0"});
  std::uint32_t color = graph.AddStaticAttribute("color");
  NodeId a = graph.AddNode("a");
  graph.AddNode("b");  // color never assigned
  graph.AddNode("c");  // color never assigned
  graph.SetStaticValue(color, a, "red");
  for (NodeId n = 0; n < 3; ++n) graph.SetNodePresent(n, 0);

  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color"});
  GraphView view = Project(graph, IntervalSet::Point(1, 0));
  AggregateGraph agg = Aggregate(graph, view, attrs, AggregationSemantics::kDistinct);
  EXPECT_EQ(agg.NodeWeight(AttrTuple::Of({kNoValue})), 2);
  EXPECT_EQ(agg.NodeCount(), 2u);
}

TEST(MissingValueAggregationTest, PartiallyAssignedVaryingAttributeDistVsAll) {
  // A node observed at two times, value assigned at only one: DIST sees two
  // distinct tuples (value + missing), ALL counts both appearances too.
  TemporalGraph graph(std::vector<std::string>{"t0", "t1"});
  std::uint32_t level = graph.AddTimeVaryingAttribute("level");
  NodeId a = graph.AddNode("a");
  graph.SetNodePresent(a, 0);
  graph.SetNodePresent(a, 1);
  graph.SetTimeVaryingValue(level, a, 0, "x");

  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"level"});
  GraphView view = UnionOp(graph, IntervalSet::Point(2, 0), IntervalSet::Point(2, 1));
  AggregateGraph dist = Aggregate(graph, view, attrs, AggregationSemantics::kDistinct);
  EXPECT_EQ(dist.TotalNodeWeight(), 2);
  EXPECT_EQ(dist.NodeWeight(AttrTuple::Of({kNoValue})), 1);
  AggregateGraph all = Aggregate(graph, view, attrs, AggregationSemantics::kAll);
  EXPECT_EQ(all.TotalNodeWeight(), 2);
}


// --- SymmetrizeAggregate ----------------------------------------------------------

TEST(SymmetrizeAggregateTest, MergesMirroredPairs) {
  AttrTuple a = AttrTuple::Of({1});
  AttrTuple b = AttrTuple::Of({2});
  AggregateGraph agg = testing::MakeAggregate(
      {{a, 3}}, {{{a, b}, 4}, {{b, a}, 6}, {{a, a}, 2}});  // self-pair untouched
  AggregateGraph sym = SymmetrizeAggregate(agg);
  EXPECT_EQ(sym.EdgeWeight(a, b), 10);
  EXPECT_EQ(sym.EdgeWeight(b, a), 0);
  EXPECT_EQ(sym.EdgeWeight(a, a), 2);
  EXPECT_EQ(sym.NodeWeight(a), 3);
  EXPECT_EQ(sym.EdgeCount(), 2u);
}

TEST(SymmetrizeAggregateTest, IsIdempotent) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender"});
  GraphView view = UnionOp(graph, IntervalSet::Range(3, 0, 2), IntervalSet::Range(3, 0, 2));
  AggregateGraph agg = Aggregate(graph, view, attrs, AggregationSemantics::kDistinct);
  AggregateGraph once = SymmetrizeAggregate(agg);
  AggregateGraph twice = SymmetrizeAggregate(once);
  EXPECT_EQ(once, twice);
  EXPECT_EQ(once.TotalEdgeWeight(), agg.TotalEdgeWeight());  // weights conserved
}

TEST(SymmetrizeAggregateTest, PaperGraphGenderPairs) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender"});
  GraphView view = Project(graph, IntervalSet::Point(3, 2));
  // At t2: (u2,u4) f->f, (u4,u5) f->m, (u2,u5) f->m.
  AggregateGraph sym = SymmetrizeAggregate(
      Aggregate(graph, view, attrs, AggregationSemantics::kDistinct));
  Weight fm = sym.EdgeWeight(G(graph, "f"), G(graph, "m")) +
              sym.EdgeWeight(G(graph, "m"), G(graph, "f"));
  EXPECT_EQ(fm, 2);  // merged into one orientation
  EXPECT_EQ(sym.EdgeWeight(G(graph, "f"), G(graph, "f")), 1);
}

// --- Helpers -------------------------------------------------------------------------

TEST(FormatTupleTest, RendersValuesAndMissing) {
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"gender", "publications"});
  EXPECT_EQ(FormatTuple(graph, attrs, GP(graph, "f", "1")), "f,1");
  AttrTuple with_missing;
  with_missing.Append(*graph.FindValueCode(attrs[0], "m"));
  with_missing.Append(kNoValue);
  EXPECT_EQ(FormatTuple(graph, attrs, with_missing), "m,∅");
}

TEST(ResolveAttributesDeath, UnknownNameAborts) {
  TemporalGraph graph = BuildPaperGraph();
  EXPECT_DEATH(ResolveAttributes(graph, {"gender", "nope"}), "unknown attribute");
}

TEST(AggregateDeath, EmptyAttributeListAborts) {
  TemporalGraph graph = BuildPaperGraph();
  GraphView view = Project(graph, IntervalSet::Point(3, 0));
  std::vector<AttrRef> empty;
  EXPECT_DEATH(Aggregate(graph, view, empty, AggregationSemantics::kDistinct),
               "at least one attribute");
}

}  // namespace
}  // namespace graphtempo
