#include "core/exploration.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/naive_exploration.h"
#include "reference_impl.h"
#include "test_graphs.h"

namespace graphtempo {
namespace {

using testing::BuildPaperGraph;
using testing::BuildRandomGraph;

EntitySelector RawEdges() {
  EntitySelector selector;
  selector.kind = EntitySelector::Kind::kEdges;
  return selector;
}

EntitySelector RawNodes() {
  EntitySelector selector;
  selector.kind = EntitySelector::Kind::kNodes;
  return selector;
}

EntitySelector GenderEdges(const TemporalGraph& graph, const std::string& src,
                           const std::string& dst) {
  EntitySelector selector;
  selector.kind = EntitySelector::Kind::kEdges;
  selector.attrs = ResolveAttributes(graph, {"gender"});
  AttrRef g = selector.attrs[0];
  AttrTuple src_tuple, dst_tuple;
  src_tuple.Append(*graph.FindValueCode(g, src));
  dst_tuple.Append(*graph.FindValueCode(g, dst));
  selector.src_tuple = src_tuple;
  selector.dst_tuple = dst_tuple;
  return selector;
}

// --- Monotonicity classification: every row of the paper's Table 1 ----------------

TEST(MonotonicityTableTest, MatchesTable1) {
  using enum EventType;
  using enum ReferenceEnd;
  using enum ExtensionSemantics;
  // Growth = T_new − T_old.
  EXPECT_FALSE(IsMonotonicallyIncreasing(kGrowth, kNew, kUnion));          // T_new−T_old(∪)
  EXPECT_TRUE(IsMonotonicallyIncreasing(kGrowth, kOld, kUnion));           // T_new(∪)−T_old
  EXPECT_TRUE(IsMonotonicallyIncreasing(kGrowth, kNew, kIntersection));    // T_new−T_old(∩)
  EXPECT_FALSE(IsMonotonicallyIncreasing(kGrowth, kOld, kIntersection));   // T_new(∩)−T_old
  // Shrinkage = T_old − T_new.
  EXPECT_TRUE(IsMonotonicallyIncreasing(kShrinkage, kNew, kUnion));        // T_old(∪)−T_new
  EXPECT_FALSE(IsMonotonicallyIncreasing(kShrinkage, kOld, kUnion));       // T_old−T_new(∪)
  EXPECT_FALSE(IsMonotonicallyIncreasing(kShrinkage, kNew, kIntersection));// T_old(∩)−T_new
  EXPECT_TRUE(IsMonotonicallyIncreasing(kShrinkage, kOld, kIntersection)); // T_old−T_new(∩)
  // Stability: direction depends only on the semantics (Lemma 3.3).
  EXPECT_TRUE(IsMonotonicallyIncreasing(kStability, kOld, kUnion));
  EXPECT_TRUE(IsMonotonicallyIncreasing(kStability, kNew, kUnion));
  EXPECT_FALSE(IsMonotonicallyIncreasing(kStability, kOld, kIntersection));
  EXPECT_FALSE(IsMonotonicallyIncreasing(kStability, kNew, kIntersection));
}

// --- CountEvents on the paper graph ------------------------------------------------

TEST(CountEventsTest, SingleTimePointPairs) {
  TemporalGraph graph = BuildPaperGraph();
  auto count = [&](EventType event, const EntitySelector& selector) {
    return CountEvents(graph, TimeRange{0, 0}, TimeRange{1, 1},
                       ExtensionSemantics::kUnion, event, selector);
  };
  EXPECT_EQ(count(EventType::kStability, RawEdges()), 2);   // (u1,u2), (u2,u4)
  EXPECT_EQ(count(EventType::kGrowth, RawEdges()), 1);      // (u1,u4)
  EXPECT_EQ(count(EventType::kShrinkage, RawEdges()), 2);   // (u1,u3), (u3,u4)
  EXPECT_EQ(count(EventType::kStability, RawNodes()), 3);   // u1, u2, u4
  EXPECT_EQ(count(EventType::kGrowth, RawNodes()), 2);      // endpoints of (u1,u4)
  EXPECT_EQ(count(EventType::kShrinkage, RawNodes()), 3);   // u3 + endpoints
}

TEST(CountEventsTest, UnionSemanticsOnExtendedOldSide) {
  TemporalGraph graph = BuildPaperGraph();
  auto count = [&](EventType event) {
    return CountEvents(graph, TimeRange{0, 1}, TimeRange{2, 2},
                       ExtensionSemantics::kUnion, event, RawEdges());
  };
  EXPECT_EQ(count(EventType::kStability), 1);   // (u2,u4)
  EXPECT_EQ(count(EventType::kGrowth), 2);      // (u4,u5), (u2,u5)
  EXPECT_EQ(count(EventType::kShrinkage), 4);   // all t0/t1 edges except (u2,u4)
}

TEST(CountEventsTest, IntersectionSemanticsOnExtendedOldSide) {
  TemporalGraph graph = BuildPaperGraph();
  // Old side [t0,t1] under ∩ semantics keeps only entities present at BOTH.
  Weight stability =
      CountEvents(graph, TimeRange{0, 1}, TimeRange{2, 2},
                  ExtensionSemantics::kIntersection, EventType::kStability, RawEdges());
  EXPECT_EQ(stability, 1);  // (u2,u4) is in t0, t1 and t2
  Weight shrinkage =
      CountEvents(graph, TimeRange{0, 1}, TimeRange{2, 2},
                  ExtensionSemantics::kIntersection, EventType::kShrinkage, RawEdges());
  EXPECT_EQ(shrinkage, 1);  // (u1,u2) is in t0∩t1 but not t2
}

TEST(CountEventsTest, TupleFilteredEdges) {
  TemporalGraph graph = BuildPaperGraph();
  Weight ff = CountEvents(graph, TimeRange{0, 0}, TimeRange{1, 1},
                          ExtensionSemantics::kUnion, EventType::kStability,
                          GenderEdges(graph, "f", "f"));
  EXPECT_EQ(ff, 1);  // (u2,u4)
  Weight mf = CountEvents(graph, TimeRange{0, 0}, TimeRange{1, 1},
                          ExtensionSemantics::kUnion, EventType::kShrinkage,
                          GenderEdges(graph, "m", "f"));
  EXPECT_EQ(mf, 1);  // (u1,u3)
}

TEST(CountEventsDeath, InvertedIntervalsAbort) {
  TemporalGraph graph = BuildPaperGraph();
  EXPECT_DEATH(CountEvents(graph, TimeRange{1, 1}, TimeRange{0, 0},
                           ExtensionSemantics::kUnion, EventType::kStability, RawEdges()),
               "precede");
}

// --- Explore on the paper graph ------------------------------------------------------

TEST(ExploreTest, MinimalStabilityPairs) {
  TemporalGraph graph = BuildPaperGraph();
  ExplorationSpec spec;
  spec.event = EventType::kStability;
  spec.semantics = ExtensionSemantics::kUnion;
  spec.reference = ReferenceEnd::kOld;
  spec.selector = RawEdges();
  spec.k = 2;
  ExplorationResult result = Explore(graph, spec);
  // Reference t0: ({t0},{t1}) already has 2 stable edges → minimal.
  // Reference t1: ({t1},{t2}) has 1; extension impossible → no pair.
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].old_range, (TimeRange{0, 0}));
  EXPECT_EQ(result.pairs[0].new_range, (TimeRange{1, 1}));
  EXPECT_EQ(result.pairs[0].count, 2);
}

TEST(ExploreTest, MinimalPairExtendsUntilThreshold) {
  TemporalGraph graph = BuildPaperGraph();
  ExplorationSpec spec;
  spec.event = EventType::kGrowth;
  spec.semantics = ExtensionSemantics::kUnion;
  spec.reference = ReferenceEnd::kOld;  // growth with extended new side: increasing
  spec.selector = RawEdges();
  spec.k = 3;
  ExplorationResult result = Explore(graph, spec);
  // Reference t0: new={t1} has growth 1; new=[t1,t2] has growth 3
  // ((u1,u4),(u4,u5),(u2,u5)) → minimal pair is ({t0},[t1,t2]).
  ASSERT_EQ(result.pairs.size(), 1u);
  EXPECT_EQ(result.pairs[0].old_range, (TimeRange{0, 0}));
  EXPECT_EQ(result.pairs[0].new_range, (TimeRange{1, 2}));
  EXPECT_EQ(result.pairs[0].count, 3);
}

TEST(ExploreTest, MaximalStabilityPairs) {
  TemporalGraph graph = BuildPaperGraph();
  ExplorationSpec spec;
  spec.event = EventType::kStability;
  spec.semantics = ExtensionSemantics::kIntersection;
  spec.reference = ReferenceEnd::kOld;
  spec.selector = RawEdges();
  spec.k = 1;
  ExplorationResult result = Explore(graph, spec);
  // Reference t0: ({t0},{t1}) has 2 ≥ 1; ({t0},[t1,t2] ∩) keeps edges present
  // at t1 AND t2 AND t0 → (u2,u4), count 1 ≥ 1 → maximal is the longer pair.
  ASSERT_EQ(result.pairs.size(), 2u);
  EXPECT_EQ(result.pairs[0].old_range, (TimeRange{0, 0}));
  EXPECT_EQ(result.pairs[0].new_range, (TimeRange{1, 2}));
  EXPECT_EQ(result.pairs[0].count, 1);
  EXPECT_EQ(result.pairs[1].old_range, (TimeRange{1, 1}));
  EXPECT_EQ(result.pairs[1].new_range, (TimeRange{2, 2}));
}

TEST(ExploreTest, ThresholdAboveEverythingYieldsNoPairs) {
  TemporalGraph graph = BuildPaperGraph();
  ExplorationSpec spec;
  spec.selector = RawEdges();
  spec.k = 1000;
  EXPECT_TRUE(Explore(graph, spec).pairs.empty());
}

// --- Theorems 3.7 / 3.8 ---------------------------------------------------------------

TEST(TheoremTest, MinimalStabilityPairsDependOnReferenceEnd) {
  // Theorem 3.7: with union semantics, fixing T_old vs fixing T_new explores
  // different candidate pairs and generally returns different minimal pairs.
  // Candidate shapes always differ structurally; here we also exhibit graphs
  // where the returned pair sets differ outright.
  bool found_difference = false;
  for (std::uint64_t seed = 1; seed <= 10 && !found_difference; ++seed) {
    TemporalGraph graph = BuildRandomGraph(seed, 25, 6);
    for (Weight k : {2, 5, 10, 20}) {
      ExplorationSpec spec;
      spec.event = EventType::kStability;
      spec.semantics = ExtensionSemantics::kUnion;
      spec.selector = RawEdges();
      spec.k = k;
      spec.reference = ReferenceEnd::kOld;
      ExplorationResult fixed_old = Explore(graph, spec);
      spec.reference = ReferenceEnd::kNew;
      ExplorationResult fixed_new = Explore(graph, spec);
      // Structural property: a fixed-old pair always has a single-point old
      // side; a fixed-new pair a single-point new side.
      for (const IntervalPair& pair : fixed_old.pairs) {
        EXPECT_EQ(pair.old_range.length(), 1u);
      }
      for (const IntervalPair& pair : fixed_new.pairs) {
        EXPECT_EQ(pair.new_range.length(), 1u);
      }
      if (fixed_old.pairs != fixed_new.pairs) found_difference = true;
    }
  }
  EXPECT_TRUE(found_difference);
}

TEST(TheoremTest, MaximalStabilityCountsAgreeAcrossReferenceEnds) {
  // Theorem 3.8: under intersection semantics the stability graph depends
  // only on the set of involved time points, so ({i}, [i+1..j]) and
  // ([i..j-1], {j}) count the same events.
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    TemporalGraph graph = BuildRandomGraph(seed, 30, 6);
    for (TimeId i = 0; i < 5; ++i) {
      for (TimeId j = static_cast<TimeId>(i + 1); j < 6; ++j) {
        Weight fixed_old = CountEvents(graph, TimeRange{i, i}, TimeRange{i + 1, j},
                                       ExtensionSemantics::kIntersection,
                                       EventType::kStability, RawEdges());
        Weight fixed_new = CountEvents(graph, TimeRange{i, static_cast<TimeId>(j - 1)},
                                       TimeRange{j, j},
                                       ExtensionSemantics::kIntersection,
                                       EventType::kStability, RawEdges());
        EXPECT_EQ(fixed_old, fixed_new) << "i=" << i << " j=" << j << " seed=" << seed;
      }
    }
  }
}

// --- Monotonicity lemmas on random graphs (Lemmas 3.3, 3.9, 3.10) ---------------------

using LemmaParam = std::tuple<EventType, ReferenceEnd, ExtensionSemantics, std::uint64_t>;

class MonotonicityLemmaTest : public ::testing::TestWithParam<LemmaParam> {};

TEST_P(MonotonicityLemmaTest, CountsAreMonotoneInExtensionLength) {
  auto [event, reference, semantics, seed] = GetParam();
  TemporalGraph graph = BuildRandomGraph(seed, 40, 7);
  const bool increasing = IsMonotonicallyIncreasing(event, reference, semantics);
  for (const EntitySelector& selector : {RawEdges(), RawNodes()}) {
    if (selector.kind == EntitySelector::Kind::kNodes &&
        event != EventType::kStability) {
      // Difference node counts include Def 2.5's endpoint rule, which the
      // monotonicity lemmas do not cover; the paper's exploration counts
      // entities of a chosen type, for differences primarily edges.
      continue;
    }
    const std::size_t n = graph.num_times();
    for (TimeId ref = 0; ref < n; ++ref) {
      Weight previous = -1;
      bool first = true;
      std::size_t max_len = reference == ReferenceEnd::kOld
                                ? (ref + 1 < n ? n - 1 - ref : 0)
                                : ref;
      for (std::size_t len = 1; len <= max_len; ++len) {
        TimeRange old_range, new_range;
        if (reference == ReferenceEnd::kOld) {
          old_range = {ref, ref};
          new_range = {static_cast<TimeId>(ref + 1), static_cast<TimeId>(ref + len)};
        } else {
          old_range = {static_cast<TimeId>(ref - len), static_cast<TimeId>(ref - 1)};
          new_range = {ref, ref};
        }
        Weight count = CountEvents(graph, old_range, new_range, semantics, event,
                                   selector);
        if (!first) {
          if (increasing) {
            EXPECT_GE(count, previous) << "ref=" << ref << " len=" << len;
          } else {
            EXPECT_LE(count, previous) << "ref=" << ref << " len=" << len;
          }
        }
        previous = count;
        first = false;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, MonotonicityLemmaTest,
    ::testing::Combine(::testing::Values(EventType::kStability, EventType::kGrowth,
                                         EventType::kShrinkage),
                       ::testing::Values(ReferenceEnd::kOld, ReferenceEnd::kNew),
                       ::testing::Values(ExtensionSemantics::kUnion,
                                         ExtensionSemantics::kIntersection),
                       ::testing::Values(101, 202, 303)));

// --- Explore ≡ ExploreNaive, with fewer evaluations -----------------------------------

using SweepParam = std::tuple<EventType, ReferenceEnd, ExtensionSemantics, int,
                              std::uint64_t>;

class ExploreEquivalenceTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ExploreEquivalenceTest, MatchesNaiveBaseline) {
  auto [event, reference, semantics, k, seed] = GetParam();
  TemporalGraph graph = BuildRandomGraph(seed, 35, 7);
  ExplorationSpec spec;
  spec.event = event;
  spec.reference = reference;
  spec.semantics = semantics;
  spec.selector = RawEdges();
  spec.k = k;
  ExplorationResult pruned = Explore(graph, spec);
  ExplorationResult naive = ExploreNaive(graph, spec);
  EXPECT_EQ(pruned.pairs, naive.pairs);
  EXPECT_LE(pruned.evaluations, naive.evaluations);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExploreEquivalenceTest,
    ::testing::Combine(::testing::Values(EventType::kStability, EventType::kGrowth,
                                         EventType::kShrinkage),
                       ::testing::Values(ReferenceEnd::kOld, ReferenceEnd::kNew),
                       ::testing::Values(ExtensionSemantics::kUnion,
                                         ExtensionSemantics::kIntersection),
                       ::testing::Values(1, 3, 10, 40),
                       ::testing::Values(11, 57)));

// --- Threshold suggestion (Section 3.5) ------------------------------------------------

TEST(SuggestThresholdTest, PaperGraphStabilityEdges) {
  TemporalGraph graph = BuildPaperGraph();
  ThresholdSuggestion suggestion =
      SuggestThreshold(graph, EventType::kStability, RawEdges());
  // Consecutive pairs: (t0,t1) → 2 stable edges, (t1,t2) → 1.
  EXPECT_EQ(suggestion.min_weight, 1);
  EXPECT_EQ(suggestion.max_weight, 2);
}

TEST(SuggestThresholdTest, GrowthAndShrinkage) {
  TemporalGraph graph = BuildPaperGraph();
  ThresholdSuggestion growth = SuggestThreshold(graph, EventType::kGrowth, RawEdges());
  // (t0,t1): 1 new edge; (t1,t2): 2 new edges.
  EXPECT_EQ(growth.min_weight, 1);
  EXPECT_EQ(growth.max_weight, 2);
  ThresholdSuggestion shrinkage =
      SuggestThreshold(graph, EventType::kShrinkage, RawEdges());
  // (t0,t1): 2 deleted; (t1,t2): 2 deleted ((u1,u2),(u1,u4)).
  EXPECT_EQ(shrinkage.min_weight, 2);
  EXPECT_EQ(shrinkage.max_weight, 2);
}

TEST(SuggestThresholdTest, UsableAsExplorationSeed) {
  // The suggested max always yields at least one pair under I-Explore/U-Explore
  // at the base level.
  TemporalGraph graph = BuildRandomGraph(99, 30, 6);
  for (EventType event :
       {EventType::kStability, EventType::kGrowth, EventType::kShrinkage}) {
    ThresholdSuggestion suggestion = SuggestThreshold(graph, event, RawEdges());
    if (suggestion.max_weight == 0) continue;
    ExplorationSpec spec;
    spec.event = event;
    spec.semantics = ExtensionSemantics::kUnion;
    spec.reference = ReferenceEnd::kOld;
    spec.selector = RawEdges();
    spec.k = suggestion.max_weight;
    EXPECT_FALSE(Explore(graph, spec).pairs.empty());
  }
}


// --- Fast-path/general-path equivalence -------------------------------------------

TEST(CountEventsFastPathTest, MatchesGeneralPathOnStaticSelectors) {
  for (std::uint64_t seed : {5u, 25u, 125u}) {
    TemporalGraph graph = BuildRandomGraph(seed, 30, 6);
    AttrRef color = *graph.FindAttribute("color");
    std::vector<EntitySelector> selectors;
    selectors.push_back(RawEdges());
    selectors.push_back(RawNodes());
    {
      EntitySelector s;  // edge tuple filter over a static attribute
      s.kind = EntitySelector::Kind::kEdges;
      s.attrs = {color};
      AttrTuple c0 = AttrTuple::Of({*graph.FindValueCode(color, "c0")});
      s.src_tuple = c0;
      s.dst_tuple = c0;
      selectors.push_back(s);
    }
    {
      EntitySelector s;  // node tuple filter
      s.kind = EntitySelector::Kind::kNodes;
      s.attrs = {color};
      s.node_tuple = AttrTuple::Of({*graph.FindValueCode(color, "c1")});
      selectors.push_back(s);
    }
    {
      EntitySelector s;  // unfiltered static totals
      s.kind = EntitySelector::Kind::kEdges;
      s.attrs = {color};
      selectors.push_back(s);
    }
    for (const EntitySelector& selector : selectors) {
      for (EventType event :
           {EventType::kStability, EventType::kGrowth, EventType::kShrinkage}) {
        for (ExtensionSemantics semantics :
             {ExtensionSemantics::kUnion, ExtensionSemantics::kIntersection}) {
          for (TimeId boundary = 1; boundary < 6; ++boundary) {
            TimeRange old_range{0, static_cast<TimeId>(boundary - 1)};
            TimeRange new_range{boundary, 5};
            EXPECT_EQ(CountEvents(graph, old_range, new_range, semantics, event,
                                  selector),
                      testing::RefCountEvents(graph, old_range, new_range, semantics,
                                              event, selector))
                << "seed=" << seed << " boundary=" << boundary;
          }
        }
      }
    }
  }
}

TEST(CountEventsFastPathTest, TimeVaryingSelectorUsesGeneralPathConsistently) {
  TemporalGraph graph = BuildRandomGraph(8, 25, 5);
  EntitySelector selector;
  selector.kind = EntitySelector::Kind::kEdges;
  selector.attrs = ResolveAttributes(graph, {"level"});
  Weight fast = CountEvents(graph, TimeRange{0, 1}, TimeRange{2, 4},
                            ExtensionSemantics::kUnion, EventType::kStability, selector);
  Weight general = testing::RefCountEvents(graph, TimeRange{0, 1}, TimeRange{2, 4},
                                           ExtensionSemantics::kUnion,
                                           EventType::kStability, selector);
  EXPECT_EQ(fast, general);  // the per-appearance walk against the definition
}


// --- Node-selector exploration end to end ------------------------------------------

using NodeSweepParam = std::tuple<EventType, ExtensionSemantics, std::uint64_t>;

class NodeSelectorSweep : public ::testing::TestWithParam<NodeSweepParam> {};

TEST_P(NodeSelectorSweep, ExploreMatchesNaiveWithNodeTupleFilter) {
  auto [event, semantics, seed] = GetParam();
  TemporalGraph graph = BuildRandomGraph(seed, 30, 6);
  AttrRef color = *graph.FindAttribute("color");
  ExplorationSpec spec;
  spec.event = event;
  spec.semantics = semantics;
  spec.reference = ReferenceEnd::kOld;
  spec.selector.kind = EntitySelector::Kind::kNodes;
  spec.selector.attrs = {color};
  spec.selector.node_tuple = AttrTuple::Of({*graph.FindValueCode(color, "c0")});
  spec.k = 2;
  // The monotonicity lemmas cover stability node counts; difference node
  // counts carry the Def 2.5 endpoint rule, so compare only where the pruned
  // engine's assumptions hold.
  if (event != EventType::kStability) {
    // Still: naive must run and produce only qualifying pairs.
    ExplorationResult naive = ExploreNaive(graph, spec);
    for (const IntervalPair& pair : naive.pairs) {
      EXPECT_GE(pair.count, spec.k);
    }
    return;
  }
  EXPECT_EQ(Explore(graph, spec).pairs, ExploreNaive(graph, spec).pairs);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NodeSelectorSweep,
    ::testing::Combine(::testing::Values(EventType::kStability, EventType::kGrowth,
                                         EventType::kShrinkage),
                       ::testing::Values(ExtensionSemantics::kUnion,
                                         ExtensionSemantics::kIntersection),
                       ::testing::Values(71, 72)));

// --- Two-point domains (smallest admissible input) ------------------------------------

TEST(TinyDomainTest, TwoTimePointsExploreEveryConfiguration) {
  TemporalGraph graph(std::vector<std::string>{"t0", "t1"});
  NodeId a = graph.AddNode("a");
  NodeId b = graph.AddNode("b");
  NodeId c = graph.AddNode("c");
  EdgeId ab = graph.GetOrAddEdge(a, b);
  EdgeId bc = graph.GetOrAddEdge(b, c);
  graph.SetEdgePresent(ab, 0);
  graph.SetEdgePresent(ab, 1);  // stable
  graph.SetEdgePresent(bc, 0);  // shrinks

  for (EventType event :
       {EventType::kStability, EventType::kGrowth, EventType::kShrinkage}) {
    for (ExtensionSemantics semantics :
         {ExtensionSemantics::kUnion, ExtensionSemantics::kIntersection}) {
      for (ReferenceEnd reference : {ReferenceEnd::kOld, ReferenceEnd::kNew}) {
        ExplorationSpec spec;
        spec.event = event;
        spec.semantics = semantics;
        spec.reference = reference;
        spec.selector.kind = EntitySelector::Kind::kEdges;
        spec.k = 1;
        ExplorationResult result = Explore(graph, spec);
        ExplorationResult naive = ExploreNaive(graph, spec);
        EXPECT_EQ(result.pairs, naive.pairs)
            << EventTypeName(event) << " semantics=" << static_cast<int>(semantics)
            << " ref=" << static_cast<int>(reference);
        // With one candidate pair, counts are fixed by construction.
        if (!result.pairs.empty()) {
          Weight expected = event == EventType::kStability   ? 1
                            : event == EventType::kShrinkage ? 1
                                                             : 0;
          if (expected == 0) {
            ADD_FAILURE() << "growth has no qualifying pair, none expected";
          } else {
            EXPECT_EQ(result.pairs[0].count, expected);
          }
        }
      }
    }
  }
}

TEST(TinyDomainTest, SingleTimePointExplorationAborts) {
  TemporalGraph graph(std::vector<std::string>{"only"});
  ExplorationSpec spec;
  spec.selector.kind = EntitySelector::Kind::kEdges;
  EXPECT_DEATH(Explore(graph, spec), "at least two time points");
  EXPECT_DEATH(ExploreNaive(graph, spec), "at least two time points");
}

}  // namespace
}  // namespace graphtempo
