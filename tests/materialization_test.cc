#include "core/materialization.h"

#include <gtest/gtest.h>

#include "core/operators.h"
#include "reference_impl.h"
#include "test_graphs.h"

namespace graphtempo {
namespace {

using testing::BuildPaperGraph;
using testing::BuildRandomGraph;

// --- RollUp (D-distributivity, Section 4.3) --------------------------------------

TEST(RollUpTest, ProjectsAndSumsWeights) {
  AggregateGraph fine = testing::MakeAggregate(
      {{AttrTuple::Of({1, 10}), 2},
       {AttrTuple::Of({1, 11}), 3},
       {AttrTuple::Of({2, 10}), 5}},
      {{{AttrTuple::Of({1, 10}), AttrTuple::Of({2, 10})}, 4},
       {{AttrTuple::Of({1, 11}), AttrTuple::Of({2, 10})}, 6}});

  const std::size_t keep_first[] = {0};
  AggregateGraph coarse = RollUp(fine, keep_first);
  EXPECT_EQ(coarse.NodeWeight(AttrTuple::Of({1})), 5);
  EXPECT_EQ(coarse.NodeWeight(AttrTuple::Of({2})), 5);
  EXPECT_EQ(coarse.EdgeWeight(AttrTuple::Of({1}), AttrTuple::Of({2})), 10);
  EXPECT_EQ(coarse.NodeCount(), 2u);
  EXPECT_EQ(coarse.EdgeCount(), 1u);
}

TEST(RollUpTest, CanReorderAttributes) {
  AggregateGraph fine = testing::MakeAggregate(
      {{AttrTuple::Of({1, 10}), 2}});
  const std::size_t swapped[] = {1, 0};
  AggregateGraph coarse = RollUp(fine, swapped);
  EXPECT_EQ(coarse.NodeWeight(AttrTuple::Of({10, 1})), 2);
}

TEST(RollUpTest, IdentityKeepsEverything) {
  AggregateGraph fine = testing::MakeAggregate(
      {{AttrTuple::Of({1, 10}), 2},
       {AttrTuple::Of({2, 20}), 7}});
  const std::size_t all[] = {0, 1};
  EXPECT_EQ(RollUp(fine, all), fine);
}

class RollUpEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RollUpEquivalence, MatchesDirectAggregationOnSubsets) {
  // RollUp(aggregate on {color, level}) ≡ direct aggregation on the subset,
  // for ALL semantics (COUNT is D-distributive).
  TemporalGraph graph = BuildRandomGraph(GetParam(), 40, 6);
  std::vector<AttrRef> both = ResolveAttributes(graph, {"color", "level"});
  std::vector<AttrRef> color_only = ResolveAttributes(graph, {"color"});
  std::vector<AttrRef> level_only = ResolveAttributes(graph, {"level"});

  GraphView view = UnionOp(graph, IntervalSet::Range(6, 0, 2), IntervalSet::Range(6, 3, 5));
  AggregateGraph fine = Aggregate(graph, view, both, AggregationSemantics::kAll);

  const std::size_t keep_color[] = {0};
  EXPECT_EQ(RollUp(fine, keep_color),
            Aggregate(graph, view, color_only, AggregationSemantics::kAll));
  const std::size_t keep_level[] = {1};
  EXPECT_EQ(RollUp(fine, keep_level),
            Aggregate(graph, view, level_only, AggregationSemantics::kAll));
}

TEST_P(RollUpEquivalence, DistRollUpMatchesOnSingleTimePoints) {
  // On one time point DIST == ALL, so DIST roll-ups are exact there too.
  TemporalGraph graph = BuildRandomGraph(GetParam(), 40, 6);
  std::vector<AttrRef> both = ResolveAttributes(graph, {"color", "level"});
  std::vector<AttrRef> color_only = ResolveAttributes(graph, {"color"});
  for (TimeId t = 0; t < 6; ++t) {
    GraphView snapshot = Project(graph, IntervalSet::Point(6, t));
    AggregateGraph fine =
        Aggregate(graph, snapshot, both, AggregationSemantics::kDistinct);
    const std::size_t keep_color[] = {0};
    EXPECT_EQ(RollUp(fine, keep_color),
              Aggregate(graph, snapshot, color_only, AggregationSemantics::kDistinct));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RollUpEquivalence, ::testing::Values(5, 6, 7, 8));

TEST(RollUpDeath, EmptyKeepListAborts) {
  AggregateGraph fine;
  std::vector<std::size_t> empty;
  EXPECT_DEATH(RollUp(fine, empty), "at least one");
}

TEST(RollUpDeath, PositionOutOfRangeAborts) {
  AggregateGraph fine = testing::MakeAggregate(
      {{AttrTuple::Of({1}), 1}});
  const std::size_t bad[] = {2};
  EXPECT_DEATH(RollUp(fine, bad), "out of tuple range");
}

TEST(RollUpDeath, DuplicatePositionAborts) {
  // Regression: a duplicated keep position used to pass through silently and
  // double-report one attribute instead of merging any groups.
  AggregateGraph fine = testing::MakeAggregate(
      {{AttrTuple::Of({1, 10}), 2}});
  const std::size_t duplicate[] = {0, 0};
  EXPECT_DEATH(RollUp(fine, duplicate), "duplicate roll-up position");
  const std::size_t duplicate_apart[] = {1, 0, 1};
  EXPECT_DEATH(RollUp(fine, duplicate_apart), "duplicate roll-up position");
}

TEST(RollUpDeath, OutOfRangeAbortsOnEdgeOnlyAggregates) {
  // Regression: the arity check must also fire when the aggregate has edge
  // tuples but no node tuples.
  AggregateGraph fine = testing::MakeAggregate(
      {},
      {{{AttrTuple::Of({1, 10}), AttrTuple::Of({2, 10})}, 3}});
  const std::size_t bad[] = {0, 2};
  EXPECT_DEATH(RollUp(fine, bad), "out of tuple range");
}

TEST(RollUpTest, EmptyAggregateRollsUpToEmpty) {
  // An empty aggregate has no tuple arity to validate against; any (non-empty,
  // duplicate-free) keep list yields the empty aggregate rather than aborting.
  AggregateGraph fine;
  const std::size_t keep[] = {5};
  AggregateGraph coarse = RollUp(fine, keep);
  EXPECT_EQ(coarse.NodeCount(), 0u);
  EXPECT_EQ(coarse.EdgeCount(), 0u);
}

// --- MaterializationStore (T-distributivity, Section 4.3) --------------------------

TEST(MaterializationStoreTest, PerTimePointAggregatesMatchSnapshots) {
  TemporalGraph graph = BuildPaperGraph();
  MaterializationStore store(&graph, ResolveAttributes(graph, {"gender", "publications"}));
  EXPECT_FALSE(store.materialized());
  store.MaterializeAllTimePoints();
  EXPECT_TRUE(store.materialized());
  for (TimeId t = 0; t < 3; ++t) {
    GraphView snapshot = Project(graph, IntervalSet::Point(3, t));
    EXPECT_EQ(store.AtTimePoint(t),
              Aggregate(graph, snapshot, store.attrs(), AggregationSemantics::kAll));
  }
}

class UnionAllDistributivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UnionAllDistributivity, CacheCombineMatchesFromScratch) {
  TemporalGraph graph = BuildRandomGraph(GetParam(), 45, 8);
  for (const char* attr : {"color", "level"}) {
    MaterializationStore store(&graph, ResolveAttributes(graph, {attr}));
    store.MaterializeAllTimePoints();
    for (TimeId first = 0; first < 8; first += 2) {
      for (TimeId last = first; last < 8; ++last) {
        IntervalSet interval = IntervalSet::Range(8, first, last);
        GraphView view = UnionOp(graph, interval, interval);
        AggregateGraph direct =
            Aggregate(graph, view, store.attrs(), AggregationSemantics::kAll);
        EXPECT_EQ(store.UnionAllAggregate(interval), direct)
            << attr << " [" << first << "," << last << "]";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionAllDistributivity, ::testing::Values(13, 17, 29));

TEST(MaterializationStoreTest, PaperGraphUnionAll) {
  TemporalGraph graph = BuildPaperGraph();
  MaterializationStore store(&graph, ResolveAttributes(graph, {"gender", "publications"}));
  store.MaterializeAllTimePoints();
  IntervalSet interval = IntervalSet::Range(3, 0, 1);
  AggregateGraph combined = store.UnionAllAggregate(interval);
  // The ALL union aggregate of Fig 3e: (f,1) weighs 4.
  AttrRef g = *graph.FindAttribute("gender");
  AttrRef p = *graph.FindAttribute("publications");
  AttrTuple f1;
  f1.Append(*graph.FindValueCode(g, "f"));
  f1.Append(*graph.FindValueCode(p, "1"));
  EXPECT_EQ(combined.NodeWeight(f1), 4);
}

TEST(MaterializationStoreTest, DistinctUnionIsNotTDistributive) {
  // Summing per-time-point aggregates over-counts entities that persist:
  // exactly why the paper restricts T-distributivity to ALL semantics.
  TemporalGraph graph = BuildPaperGraph();
  MaterializationStore store(&graph, ResolveAttributes(graph, {"gender", "publications"}));
  store.MaterializeAllTimePoints();
  IntervalSet interval = IntervalSet::Range(3, 0, 1);
  GraphView view = UnionOp(graph, interval, interval);
  AggregateGraph distinct =
      Aggregate(graph, view, store.attrs(), AggregationSemantics::kDistinct);
  EXPECT_NE(store.UnionAllAggregate(interval), distinct);
}

TEST(MaterializationStoreDeath, QueryBeforeMaterializeAborts) {
  TemporalGraph graph = BuildPaperGraph();
  MaterializationStore store(&graph, ResolveAttributes(graph, {"gender"}));
  EXPECT_DEATH(store.AtTimePoint(0), "Materialize");
  EXPECT_DEATH(store.UnionAllAggregate(IntervalSet::Point(3, 0)), "Materialize");
}

TEST(MaterializationStoreDeath, EmptyIntervalAborts) {
  TemporalGraph graph = BuildPaperGraph();
  MaterializationStore store(&graph, ResolveAttributes(graph, {"gender"}));
  store.MaterializeAllTimePoints();
  EXPECT_DEATH(store.UnionAllAggregate(IntervalSet(3)), "non-empty");
}

}  // namespace
}  // namespace graphtempo
