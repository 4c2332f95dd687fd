/// Randomized property suite: algebraic invariants of the model checked over
/// seeded random graphs. Each property is a claim made (or relied upon) by
/// the paper; the sweeps here are the closest thing to a proof the test suite
/// can offer.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>

#include "core/evolution.h"
#include "core/exploration.h"
#include "core/materialization.h"
#include "core/operators.h"
#include "test_graphs.h"

namespace graphtempo {
namespace {

using testing::BuildRandomGraph;

class PropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  PropertyTest() : graph_(BuildRandomGraph(GetParam(), 35, 8)) {}

  TemporalGraph graph_;
  const std::size_t n_ = 8;
};

// --- Operator algebra ------------------------------------------------------------

TEST_P(PropertyTest, UnionIsMonotoneInItsIntervals) {
  // Lemma 3.3 (union side): extending an interval can only add entities.
  IntervalSet base = IntervalSet::Range(n_, 2, 3);
  IntervalSet narrow = IntervalSet::Point(n_, 5);
  IntervalSet wide = IntervalSet::Range(n_, 5, 7);
  GraphView small = UnionOp(graph_, base, narrow);
  GraphView large = UnionOp(graph_, base, wide);
  EXPECT_TRUE(std::includes(large.nodes.begin(), large.nodes.end(), small.nodes.begin(),
                            small.nodes.end()));
  EXPECT_TRUE(std::includes(large.edges.begin(), large.edges.end(), small.edges.begin(),
                            small.edges.end()));
}

TEST_P(PropertyTest, UnionAllWeightsAreMonotone) {
  // Weight-level monotonicity (Def 3.1): every aggregate weight grows with ∪.
  std::vector<AttrRef> attrs = ResolveAttributes(graph_, {"color"});
  IntervalSet base = IntervalSet::Point(n_, 0);
  for (TimeId end = 1; end < n_; ++end) {
    GraphView prev = UnionOp(graph_, base, IntervalSet::Range(n_, 1, end));
    AggregateGraph prev_agg =
        Aggregate(graph_, prev, attrs, AggregationSemantics::kAll);
    if (end + 1 < n_) {
      GraphView next =
          UnionOp(graph_, base, IntervalSet::Range(n_, 1, static_cast<TimeId>(end + 1)));
      AggregateGraph next_agg =
          Aggregate(graph_, next, attrs, AggregationSemantics::kAll);
      prev_agg.ForEachNode([&](const AttrTuple& tuple, const auto& weight) {
        EXPECT_GE(next_agg.NodeWeight(tuple), weight);
      });
      prev_agg.ForEachEdge(
          [&](const AttrTuple& src, const AttrTuple& dst, const auto& weight) {
        const AttrTuplePair pair{src, dst};
        EXPECT_GE(next_agg.EdgeWeight(pair.src, pair.dst), weight);
      });
    }
  }
}

TEST_P(PropertyTest, ProjectShrinksAsIntervalGrows) {
  // Project requires presence throughout, so longer intervals keep fewer
  // entities — the intersection-semantics counterpart of the lemma above.
  std::size_t previous_nodes = graph_.num_nodes() + 1;
  std::size_t previous_edges = graph_.num_edges() + 1;
  for (TimeId end = 0; end < n_; ++end) {
    GraphView view = Project(graph_, IntervalSet::Range(n_, 0, end));
    EXPECT_LE(view.NodeCount(), previous_nodes);
    EXPECT_LE(view.EdgeCount(), previous_edges);
    previous_nodes = view.NodeCount();
    previous_edges = view.EdgeCount();
  }
}

TEST_P(PropertyTest, DifferenceEdgesAreDisjointFromIntersectionEdges) {
  IntervalSet a = IntervalSet::Range(n_, 0, 3);
  IntervalSet b = IntervalSet::Range(n_, 4, 7);
  GraphView inter = IntersectionOp(graph_, a, b);
  GraphView diff = DifferenceOp(graph_, a, b);
  std::vector<EdgeId> overlap;
  std::set_intersection(inter.edges.begin(), inter.edges.end(), diff.edges.begin(),
                        diff.edges.end(), std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty());
}

TEST_P(PropertyTest, EvolutionComponentsCoverTheUnion) {
  // V> = V∩ ∪ V− ∪ V'− and E> = E∩ ∪ E− ∪ E'− (Def 2.7); for edges the three
  // parts partition the union graph's edges exactly.
  IntervalSet a = IntervalSet::Range(n_, 0, 3);
  IntervalSet b = IntervalSet::Range(n_, 4, 7);
  EvolutionGraph evolution = MakeEvolutionGraph(graph_, a, b);
  GraphView union_view = UnionOp(graph_, a, b);
  EXPECT_EQ(evolution.stability.EdgeCount() + evolution.shrinkage.EdgeCount() +
                evolution.growth.EdgeCount(),
            union_view.EdgeCount());
}

// --- Aggregation invariants ---------------------------------------------------------

TEST_P(PropertyTest, AllNodeWeightEqualsAppearanceCount) {
  // ALL semantics counts (node, time) appearances: the total node weight of
  // any aggregate equals the summed presence of the view's nodes.
  std::vector<AttrRef> attrs = ResolveAttributes(graph_, {"color", "level"});
  IntervalSet a = IntervalSet::Range(n_, 1, 3);
  IntervalSet b = IntervalSet::Range(n_, 5, 6);
  GraphView view = UnionOp(graph_, a, b);
  AggregateGraph agg = Aggregate(graph_, view, attrs, AggregationSemantics::kAll);
  Weight appearances = 0;
  for (NodeId node : view.nodes) {
    appearances += static_cast<Weight>((graph_.NodeTimes(node) & view.times).Count());
  }
  EXPECT_EQ(agg.TotalNodeWeight(), appearances);
}

TEST_P(PropertyTest, DistinctStaticNodeWeightEqualsNodeCount) {
  // DIST over a static attribute counts each node exactly once.
  std::vector<AttrRef> attrs = ResolveAttributes(graph_, {"color"});
  GraphView view = UnionOp(graph_, IntervalSet::Range(n_, 0, 3),
                           IntervalSet::Range(n_, 4, 7));
  AggregateGraph agg = Aggregate(graph_, view, attrs, AggregationSemantics::kDistinct);
  EXPECT_EQ(agg.TotalNodeWeight(), static_cast<Weight>(view.NodeCount()));
  EXPECT_EQ(agg.TotalEdgeWeight(), static_cast<Weight>(view.EdgeCount()));
}

TEST_P(PropertyTest, DistNeverExceedsAll) {
  std::vector<AttrRef> attrs = ResolveAttributes(graph_, {"color", "level"});
  GraphView view = UnionOp(graph_, IntervalSet::Range(n_, 0, 3),
                           IntervalSet::Range(n_, 4, 7));
  AggregateGraph dist = Aggregate(graph_, view, attrs, AggregationSemantics::kDistinct);
  AggregateGraph all = Aggregate(graph_, view, attrs, AggregationSemantics::kAll);
  dist.ForEachNode([&](const AttrTuple& tuple, const auto& weight) {
    EXPECT_LE(weight, all.NodeWeight(tuple));
  });
  dist.ForEachEdge([&](const AttrTuple& src, const AttrTuple& dst, const auto& weight) {
    const AttrTuplePair pair{src, dst};
    EXPECT_LE(weight, all.EdgeWeight(pair.src, pair.dst));
  });
}

TEST_P(PropertyTest, AggregationIsInsensitiveToAttributeOrderUpToPermutation) {
  std::vector<AttrRef> cl = ResolveAttributes(graph_, {"color", "level"});
  std::vector<AttrRef> lc = ResolveAttributes(graph_, {"level", "color"});
  GraphView view = Project(graph_, IntervalSet::Point(n_, 2));
  AggregateGraph a = Aggregate(graph_, view, cl, AggregationSemantics::kDistinct);
  AggregateGraph b = Aggregate(graph_, view, lc, AggregationSemantics::kDistinct);
  const std::size_t swap_order[] = {1, 0};
  EXPECT_EQ(RollUp(a, swap_order), b);
}

// --- Evolution invariants --------------------------------------------------------------

TEST_P(PropertyTest, EvolutionTransitionWeightsAreConsistent) {
  // For every aggregate entity: stability + shrinkage = #(entity, tuple)
  // combinations in the old interval; stability + growth = in the new one.
  std::vector<AttrRef> attrs = ResolveAttributes(graph_, {"color"});
  IntervalSet t_old = IntervalSet::Range(n_, 0, 3);
  IntervalSet t_new = IntervalSet::Range(n_, 4, 7);
  EvolutionAggregate evolution = AggregateEvolution(graph_, t_old, t_new, attrs);

  GraphView old_view = UnionOp(graph_, t_old, t_old);
  old_view.times = t_old;
  GraphView new_view = UnionOp(graph_, t_new, t_new);
  new_view.times = t_new;
  AggregateGraph old_agg =
      Aggregate(graph_, old_view, attrs, AggregationSemantics::kDistinct);
  AggregateGraph new_agg =
      Aggregate(graph_, new_view, attrs, AggregationSemantics::kDistinct);

  evolution.ForEachNode([&](const AttrTuple& tuple, const auto& weights) {
    EXPECT_EQ(weights.stability + weights.shrinkage, old_agg.NodeWeight(tuple));
    EXPECT_EQ(weights.stability + weights.growth, new_agg.NodeWeight(tuple));
  });
  evolution.ForEachEdge(
      [&](const AttrTuple& src, const AttrTuple& dst, const auto& weights) {
    const AttrTuplePair pair{src, dst};
    EXPECT_EQ(weights.stability + weights.shrinkage,
              old_agg.EdgeWeight(pair.src, pair.dst));
    EXPECT_EQ(weights.stability + weights.growth,
              new_agg.EdgeWeight(pair.src, pair.dst));
  });
}

// --- Exploration invariants ---------------------------------------------------------------

TEST_P(PropertyTest, StabilityPlusShrinkageEqualsOldSideCount) {
  // Raw edge counts: every old-side edge is either stable or shrinking.
  for (TimeId t = 0; t + 1 < n_; ++t) {
    EntitySelector edges;
    edges.kind = EntitySelector::Kind::kEdges;
    Weight stable = CountEvents(graph_, TimeRange{t, t}, TimeRange{t + 1, t + 1},
                                ExtensionSemantics::kUnion, EventType::kStability, edges);
    Weight gone = CountEvents(graph_, TimeRange{t, t}, TimeRange{t + 1, t + 1},
                              ExtensionSemantics::kUnion, EventType::kShrinkage, edges);
    Weight at_t = 0;
    for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
      if (graph_.EdgePresentAt(e, t)) ++at_t;
    }
    EXPECT_EQ(stable + gone, at_t) << "t=" << t;
  }
}

TEST_P(PropertyTest, MaterializationChainMatchesDirectComputation) {
  // Random interval: per-point cache + union combine + roll-up ≡ direct.
  std::vector<AttrRef> both = ResolveAttributes(graph_, {"color", "level"});
  MaterializationStore store(&graph_, both);
  store.MaterializeAllTimePoints();
  datagen::Pcg32 rng(GetParam() * 7919 + 1);
  for (int round = 0; round < 5; ++round) {
    TimeId first = static_cast<TimeId>(rng.NextBelow(static_cast<std::uint32_t>(n_)));
    TimeId last = static_cast<TimeId>(
        first + rng.NextBelow(static_cast<std::uint32_t>(n_ - first)));
    IntervalSet interval = IntervalSet::Range(n_, first, last);
    AggregateGraph combined = store.UnionAllAggregate(interval);
    GraphView view = UnionOp(graph_, interval, interval);
    EXPECT_EQ(combined, Aggregate(graph_, view, both, AggregationSemantics::kAll));
    const std::size_t keep_color[] = {0};
    std::vector<AttrRef> color_only = ResolveAttributes(graph_, {"color"});
    EXPECT_EQ(RollUp(combined, keep_color),
              Aggregate(graph_, view, color_only, AggregationSemantics::kAll));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 10, 20, 30, 40, 50));

}  // namespace
}  // namespace graphtempo
