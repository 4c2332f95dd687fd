#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/aggregation.h"
#include "core/evolution.h"
#include "core/graph_snapshot.h"
#include "core/materialization.h"
#include "core/operators.h"
#include "engine/engine.h"
#include "engine/wire.h"
#include "obs/metrics.h"
#include "reference_impl.h"
#include "test_graphs.h"
#include "util/parallel.h"

/// \file
/// Randomized differential suite pinning answers held as code-ordered rows
/// (`CodedGraph`: one codec, one (code, weights) array per side) against the
/// tuple-keyed references of tests/reference_impl.h: the answers, their
/// ranked rows, and the response bytes the wire writers produce from them.
///
/// Coverage: dense, hashed (above `kDenseNodeCellsMax`) and numbered
/// (unpackable) domains; kNoValue cells inside weight ties; `symmetrize`;
/// `RollUp` to every attribute subset; the materialized route against the
/// direct one after appends that grow the dictionaries (per-point answers
/// then carry different radices); result and layer spill reloads and the
/// spill bytes; `top` at 0, 1, n and n + 1; 1, 2, 7 and 16 threads.

namespace graphtempo {
namespace {

using engine::PlanRoute;
using engine::QueryEngine;
using engine::QueryKind;
using engine::QueryPlan;
using engine::QueryResult;
using engine::QuerySpec;
using engine::RankedRows;
using engine::TemporalOperatorKind;
using testing::BuildShapedGraph;
using testing::RefGroups;
using testing::Shape;

constexpr std::size_t kThreadCounts[] = {1, 2, 7, 16};

/// 300 values per wide attribute: {wide_a, color} hashes its edges,
/// {wide_a, wide_b, color} its nodes too, and the four wide attributes
/// (301^4 cells) do not pack into 32 bits, so their tuples are numbered.
const Shape kShape{.nodes = 400, .times = 7, .edges = 2000, .wide = 300};

const std::vector<std::vector<std::string>> kDomains = {
    {"color", "level"},                          // dense, kNoValue in both
    {"level", "color", "mood"},                  // dense, three attributes
    {"wide_a", "color"},                         // hashed edges
    {"wide_a", "wide_b", "color"},               // hashed nodes
    {"wide_a", "wide_b", "wide_c", "wide_d"},    // numbered tuples
};

class AnswerKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spill_dir_ = ::testing::TempDir() + "/gt_answer_spill_" + std::to_string(::getpid());
    std::filesystem::remove_all(spill_dir_);
  }
  void TearDown() override {
    SetParallelism(1);
    std::filesystem::remove_all(spill_dir_);
  }

  std::string spill_dir_;
};

/// `top` values at the edges of both sections: 0, 1, n and n + 1.
std::vector<std::size_t> Tops(std::size_t nodes, std::size_t edges) {
  const std::set<std::size_t> tops = {0, 1, nodes, nodes + 1, edges, edges + 1};
  return {tops.begin(), tops.end()};
}

QuerySpec UnionSpec(std::vector<AttrRef> attrs, const IntervalSet& t1,
                    const IntervalSet& t2, AggregationSemantics semantics) {
  QuerySpec spec;
  spec.op = TemporalOperatorKind::kUnion;
  spec.t1 = t1;
  spec.t2 = t2;
  spec.attrs = std::move(attrs);
  spec.semantics = semantics;
  return spec;
}

QueryPlan PlanOf(const QuerySpec& spec) {
  QueryPlan plan;
  plan.fingerprint = spec.Fingerprint();
  return plan;
}

/// The ranked rows of `answer`, decoded: what the writers walk.
template <typename W>
struct RankedTuples {
  std::vector<std::pair<AttrTuple, W>> first;
  std::vector<std::pair<AttrTuplePair, W>> second;
};

template <typename W>
RankedTuples<W> Ranked(const CodedGraph<W>& answer, const RankedRows& ranking) {
  RankedTuples<W> rows;
  for (std::uint32_t i : ranking.nodes) {
    const GroupRow<W>& row = answer.nodes()[i];
    rows.first.emplace_back(answer.NodeTuple(row.code), row.weight);
  }
  for (std::uint32_t i : ranking.edges) {
    const GroupRow<W>& row = answer.edges()[i];
    rows.second.emplace_back(answer.EdgePair(row.code), row.weight);
  }
  return rows;
}

bool HasNoValue(const AttrTuple& tuple) {
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (tuple[i] == kNoValue) return true;
  }
  return false;
}

/// True when two adjacent ranked node rows tie on weight and one of them
/// carries kNoValue: the tie-break then has to put kNoValue last.
template <typename W, typename WeightOf>
bool NoValueTie(const std::vector<std::pair<AttrTuple, W>>& rows, WeightOf weight_of) {
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (weight_of(rows[i - 1].second) == weight_of(rows[i].second) &&
        (HasNoValue(rows[i - 1].first) || HasNoValue(rows[i].first))) {
      return true;
    }
  }
  return false;
}

/// `actual` equals the reference `expected`, ranks like the reference
/// renderer sorts, and writes the reference's bytes at every `top`. Returns
/// whether a weight tie involved kNoValue.
bool ExpectAggregateMatches(const TemporalGraph& graph, const QuerySpec& spec,
                            const AggregateGraph& actual, const AggregateGraph& expected,
                            const std::string& where) {
  EXPECT_EQ(actual, expected) << where;
  auto weight = [](Weight w) { return w; };
  const RefGroups<Weight> groups = testing::ToRefGroups(expected);
  const auto ranked = Ranked(actual, engine::RankRows(actual));
  EXPECT_EQ(ranked.first, testing::RefSortedRows(groups.nodes, weight)) << where;
  EXPECT_EQ(ranked.second, testing::RefSortedRows(groups.edges, weight)) << where;
  const QueryPlan plan = PlanOf(spec);
  for (std::size_t top : Tops(expected.NodeCount(), expected.EdgeCount())) {
    EXPECT_EQ(engine::wire::ResultToJson(graph, spec, plan, actual, top),
              testing::RefResultToJson(graph, spec, plan, expected, top))
        << where << " top=" << top;
  }
  return NoValueTie(ranked.first, weight);
}

TEST_F(AnswerKernelTest, AggregateAnswersMatchTupleReference) {
  const TemporalGraph graph = BuildShapedGraph(71, kShape);
  const std::size_t n = graph.num_times();
  const std::vector<std::pair<IntervalSet, IntervalSet>> intervals = {
      {IntervalSet::Range(n, 0, 3), IntervalSet::Range(n, 2, 6)},
      {IntervalSet::Point(n, 4), IntervalSet(n)},
  };
  bool saw_tie = false;
  std::size_t turn = 0;
  for (const std::vector<std::string>& names : kDomains) {
    const std::vector<AttrRef> attrs = ResolveAttributes(graph, names);
    for (const auto& [t1, t2] : intervals) {
      for (AggregationSemantics semantics :
           {AggregationSemantics::kDistinct, AggregationSemantics::kAll}) {
        const QuerySpec spec = UnionSpec(attrs, t1, t2, semantics);
        const GraphView view = UnionOp(graph, t1, t2);
        SetParallelism(1);
        const AggregateGraph expected =
            testing::RefAggregate(graph, view, attrs, semantics);
        const std::size_t threads = kThreadCounts[turn++ % std::size(kThreadCounts)];
        SetParallelism(threads);
        const AggregateGraph actual = Aggregate(graph, view, attrs, semantics);
        const std::string where = spec.ToString(graph) + ", " + std::to_string(threads) +
                                  " threads";
        saw_tie |= ExpectAggregateMatches(graph, spec, actual, expected, where);

        // The engine's answer: ranked once, written from its ranking.
        QueryEngine engine(&graph);
        const QueryResult result = engine.ExecuteResult(spec);
        const QueryPlan plan = engine.Plan(spec);
        for (std::size_t top : Tops(expected.NodeCount(), expected.EdgeCount())) {
          EXPECT_EQ(engine::wire::QueryResultToJson(graph, spec, plan, result, top),
                    testing::RefResultToJson(graph, spec, plan, expected, top))
              << where << " top=" << top << " (engine)";
        }
      }
    }
  }
  EXPECT_TRUE(saw_tie) << "no weight tie involved a kNoValue cell";
}

TEST_F(AnswerKernelTest, EvolutionAnswersMatchTupleReference) {
  const TemporalGraph graph = BuildShapedGraph(72, kShape);
  const std::size_t n = graph.num_times();
  const IntervalSet t_old = IntervalSet::Range(n, 0, 2);
  const IntervalSet t_new = IntervalSet::Range(n, 3, 6);
  auto total = [](const EvolutionWeights& w) {
    return w.stability + w.growth + w.shrinkage;
  };
  bool saw_tie = false;
  for (const std::vector<std::string>& names : kDomains) {
    QuerySpec spec;
    spec.kind = QueryKind::kEvolution;
    spec.t1 = t_old;
    spec.t2 = t_new;
    spec.attrs = ResolveAttributes(graph, names);
    SetParallelism(1);
    const EvolutionAggregate expected =
        testing::RefAggregateEvolution(graph, t_old, t_new, spec.attrs);
    const RefGroups<EvolutionWeights> groups = testing::ToRefGroups(expected);
    const QueryPlan plan = PlanOf(spec);
    for (std::size_t threads : kThreadCounts) {
      SetParallelism(threads);
      const EvolutionAggregate actual =
          AggregateEvolution(graph, t_old, t_new, spec.attrs);
      const std::string where = spec.ToString(graph) + ", " + std::to_string(threads) +
                                " threads";
      EXPECT_EQ(actual, expected) << where;
      const auto ranked = Ranked(actual, engine::RankRows(actual));
      EXPECT_EQ(ranked.first, testing::RefSortedRows(groups.nodes, total)) << where;
      EXPECT_EQ(ranked.second, testing::RefSortedRows(groups.edges, total)) << where;
      saw_tie |= NoValueTie(ranked.first, total);
      if (threads != kThreadCounts[std::size(kThreadCounts) - 1]) continue;
      for (std::size_t top : Tops(expected.NodeCount(), expected.EdgeCount())) {
        EXPECT_EQ(engine::wire::EvolutionToJson(graph, spec, plan, actual, top),
                  testing::RefEvolutionToJson(graph, spec, plan, expected, top))
            << where << " top=" << top;
      }
    }
  }
  EXPECT_TRUE(saw_tie) << "no total-weight tie involved a kNoValue cell";
}

TEST_F(AnswerKernelTest, SymmetrizeAndRollUpMatchTupleReference) {
  const TemporalGraph graph = BuildShapedGraph(73, kShape);
  const std::size_t n = graph.num_times();
  for (const std::vector<std::string>& names :
       {kDomains[1], kDomains[3], kDomains[4]}) {
    const std::vector<AttrRef> attrs = ResolveAttributes(graph, names);
    QuerySpec spec = UnionSpec(attrs, IntervalSet::Range(n, 0, 4),
                               IntervalSet::Range(n, 3, 6), AggregationSemantics::kAll);
    const GraphView view = UnionOp(graph, spec.t1, spec.t2);
    const AggregateGraph actual = Aggregate(graph, view, attrs, spec.semantics);
    const AggregateGraph expected =
        testing::RefAggregate(graph, view, attrs, spec.semantics);
    ASSERT_EQ(actual, expected) << spec.ToString(graph);

    spec.symmetrize = true;
    ExpectAggregateMatches(graph, spec, SymmetrizeAggregate(actual),
                           testing::RefSymmetrize(expected),
                           spec.ToString(graph) + " symmetrized");
    spec.symmetrize = false;

    // Every non-empty subset, in ascending and in reversed position order.
    for (std::uint32_t mask = 1; mask < (1u << attrs.size()); ++mask) {
      std::vector<std::size_t> keep;
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        if ((mask >> i) & 1u) keep.push_back(i);
      }
      for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1) std::reverse(keep.begin(), keep.end());
        QuerySpec sub = spec;
        sub.attrs.clear();
        for (std::size_t position : keep) sub.attrs.push_back(attrs[position]);
        ExpectAggregateMatches(graph, sub, RollUp(actual, keep),
                               testing::RefRollUp(expected, keep),
                               sub.ToString(graph) + " rolled up");
        if (keep.size() == 1) break;
      }
    }
  }
}

/// Appends one time point whose nodes and edges bring values no dictionary
/// held before: a new color on a new node, a new level and mood.
void AppendGrowingPoint(TemporalGraph& graph, int round) {
  const std::string tag = std::to_string(round);
  const TimeId t = graph.AppendTimePoint("x" + tag);
  const std::uint32_t color = graph.FindAttribute("color")->index;
  const std::uint32_t level = graph.FindAttribute("level")->index;
  const std::uint32_t mood = graph.FindAttribute("mood")->index;
  const NodeId fresh = graph.AddNode("fresh" + tag);
  graph.SetStaticValue(color, fresh, "new_color" + tag);
  for (NodeId n : {fresh, NodeId{0}, NodeId{1}, NodeId{2}}) {
    graph.SetNodePresent(n, t);
    graph.SetTimeVaryingValue(level, n, t, "new_level" + tag);
    graph.SetTimeVaryingValue(mood, n, t, n == fresh ? "new_mood" + tag : "up");
  }
  graph.SetEdgePresent(graph.GetOrAddEdge(fresh, 0), t);
  graph.SetEdgePresent(graph.GetOrAddEdge(1, fresh), t);
  graph.SetEdgePresent(graph.GetOrAddEdge(2, 1), t);
}

TEST_F(AnswerKernelTest, MaterializedRouteMatchesDirectAfterDictionaryGrowth) {
  TemporalGraph graph =
      BuildShapedGraph(74, Shape{.nodes = 200, .times = 5, .edges = 800});
  const std::vector<AttrRef> base = ResolveAttributes(graph, {"color", "level", "mood"});
  QueryEngine engine(&graph);
  engine.EnableMaterialization(base);
  MaterializationStore store(&graph, base);
  store.MaterializeAllTimePoints();
  for (int round = 0; round < 2; ++round) {
    AppendGrowingPoint(graph, round);
    engine.Refresh();
    store.Refresh();
  }
  const std::size_t n = graph.num_times();
  ASSERT_FALSE(store.AtTimePoint(0).codec() == store.AtTimePoint(n - 1).codec())
      << "the appends must grow the per-point radices";

  // The store's T-distributive sum against the tuple-keyed sum and the
  // direct aggregation of the whole union.
  const IntervalSet all = IntervalSet::All(n);
  std::vector<AggregateGraph> points;
  for (TimeId t = 0; t < n; ++t) points.push_back(store.AtTimePoint(t));
  const AggregateGraph direct_all = Aggregate(
      graph, UnionOp(graph, all, IntervalSet(n)), base, AggregationSemantics::kAll);
  EXPECT_EQ(store.UnionAllAggregate(all), testing::RefSumAggregates(points));
  EXPECT_EQ(store.UnionAllAggregate(all), direct_all);

  const std::vector<std::vector<std::size_t>> subsets = {
      {0, 1, 2}, {1}, {2, 0}, {1, 2}, {2, 1, 0}};
  for (const std::vector<std::size_t>& keep : subsets) {
    for (const IntervalSet& t1 : {all, IntervalSet::Range(n, 3, n - 1)}) {
      std::vector<AttrRef> attrs;
      for (std::size_t position : keep) attrs.push_back(base[position]);
      const QuerySpec spec =
          UnionSpec(attrs, t1, IntervalSet(n), AggregationSemantics::kAll);
      QueryEngine::PlanOptions materialized, direct;
      materialized.force_route = PlanRoute::kMaterializedDerivation;
      direct.force_route = PlanRoute::kDirectKernel;
      engine.ClearCache();
      const QueryResult derived = engine.ExecuteResult(spec, materialized);
      engine.ClearCache();
      const QueryResult computed = engine.ExecuteResult(spec, direct);
      const std::string where = spec.ToString(graph);
      EXPECT_EQ(derived.aggregate(), computed.aggregate()) << where;
      const QueryPlan plan = PlanOf(spec);
      for (std::size_t top :
           Tops(computed.aggregate().NodeCount(), computed.aggregate().EdgeCount())) {
        EXPECT_EQ(engine::wire::QueryResultToJson(graph, spec, plan, derived, top),
                  engine::wire::QueryResultToJson(graph, spec, plan, computed, top))
            << where << " top=" << top;
      }
    }
  }
}

TEST_F(AnswerKernelTest, SpillBytesRoundTripAndFailClosed) {
  const TemporalGraph graph = BuildShapedGraph(75, kShape);
  const std::size_t n = graph.num_times();
  const GraphView view = UnionOp(graph, IntervalSet::Range(n, 0, 3), IntervalSet(n));
  std::vector<AggregateGraph> answers;
  for (const std::vector<std::string>& names : kDomains) {
    answers.push_back(Aggregate(graph, view, ResolveAttributes(graph, names),
                                AggregationSemantics::kAll));
  }
  answers.push_back(AggregateGraph{});
  ASSERT_FALSE(answers[4].codec().packed()) << "the widest domain must be numbered";

  const std::string bytes = EncodeAggregateGraphs(answers);
  std::vector<AggregateGraph> decoded;
  std::string error;
  ASSERT_TRUE(DecodeAggregateGraphs(bytes, &decoded, &error)) << error;
  ASSERT_EQ(decoded.size(), answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_TRUE(decoded[i].codec() == answers[i].codec()) << i;
    EXPECT_TRUE(std::equal(decoded[i].nodes().begin(), decoded[i].nodes().end(),
                           answers[i].nodes().begin(), answers[i].nodes().end()))
        << i;
    EXPECT_TRUE(std::equal(decoded[i].edges().begin(), decoded[i].edges().end(),
                           answers[i].edges().begin(), answers[i].edges().end()))
        << i;
  }

  // Truncation, and node rows out of code order, read as corrupt.
  const std::string truncated = bytes.substr(0, bytes.size() - 3);
  EXPECT_FALSE(DecodeAggregateGraphs(truncated, &decoded, &error));
  const std::vector<AggregateGraph> one = {answers[0]};
  std::string swapped = EncodeAggregateGraphs(one);
  ASSERT_GE(answers[0].NodeCount(), 2u);
  // Layout: layer count, packed flag, arity, radices, node count, rows.
  const std::size_t rows_at = 8 + 1 + 1 + 8 * answers[0].codec().arity() + 8;
  std::swap_ranges(swapped.begin() + rows_at, swapped.begin() + rows_at + 16,
                   swapped.begin() + rows_at + 16);
  EXPECT_FALSE(DecodeAggregateGraphs(swapped, &decoded, &error));
}

TEST_F(AnswerKernelTest, SpillReloadedAnswersMatchTupleReference) {
  const TemporalGraph graph = BuildShapedGraph(76, kShape);
  const std::size_t n = graph.num_times();
  QueryEngine::Config config;
  config.spill_dir = spill_dir_;
  config.cache_capacity = 1;       // the second distinct answer evicts the first
  config.max_resident_layers = 1;  // the second layer evicts the first
  QueryEngine engine(&graph, config);
  const std::vector<AttrRef> base =
      ResolveAttributes(graph, {"wide_a", "color", "level"});
  engine.EnableMaterialization(base);

  // Result spill: numbered and hashed answers on the direct route.
  for (std::size_t d : {std::size_t{3}, std::size_t{4}}) {
    const QuerySpec spec =
        UnionSpec(ResolveAttributes(graph, kDomains[d]), IntervalSet::Range(n, 0, 3),
                  IntervalSet(n), AggregationSemantics::kDistinct);
    const QuerySpec other = UnionSpec(spec.attrs, IntervalSet::Range(n, 1, 3),
                                      IntervalSet(n), AggregationSemantics::kDistinct);
    const AggregateGraph expected =
        testing::RefAggregate(graph, UnionOp(graph, spec.t1, spec.t2), spec.attrs,
                              spec.semantics);
    engine.ExecuteResult(spec);
    engine.ExecuteResult(other);  // spills `spec`
    const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
    const QueryResult reloaded = engine.ExecuteResult(spec);
    const obs::MetricsSnapshot after = obs::Registry::Instance().Snapshot();
    ASSERT_EQ(after.CounterValue("engine/result_reload") -
                  before.CounterValue("engine/result_reload"),
              1u);
    const QueryPlan plan = PlanOf(spec);
    for (std::size_t top : Tops(expected.NodeCount(), expected.EdgeCount())) {
      EXPECT_EQ(engine::wire::QueryResultToJson(graph, spec, plan, reloaded, top),
                testing::RefResultToJson(graph, spec, plan, expected, top))
          << spec.ToString(graph) << " top=" << top;
    }
  }

  // Layer spill: two subset layers, one resident slot, then the first again.
  auto subset = [&](std::vector<AttrRef> attrs) {
    return UnionSpec(std::move(attrs), IntervalSet::All(n), IntervalSet(n),
                     AggregationSemantics::kAll);
  };
  const QuerySpec first = subset({base[1], base[0]});
  const QuerySpec second = subset({base[2]});
  QueryEngine::PlanOptions materialized;
  materialized.force_route = PlanRoute::kMaterializedDerivation;
  engine.ExecuteResult(first, materialized);
  engine.ExecuteResult(second, materialized);
  engine.ClearCache();
  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  const QueryResult reloaded = engine.ExecuteResult(first, materialized);
  const obs::MetricsSnapshot after = obs::Registry::Instance().Snapshot();
  EXPECT_GT(after.CounterValue("engine/layer_reload") -
                before.CounterValue("engine/layer_reload"),
            0u);
  const AggregateGraph expected = testing::RefAggregate(
      graph, UnionOp(graph, first.t1, first.t2), first.attrs, first.semantics);
  const QueryPlan plan = PlanOf(first);
  for (std::size_t top : Tops(expected.NodeCount(), expected.EdgeCount())) {
    EXPECT_EQ(engine::wire::QueryResultToJson(graph, first, plan, reloaded, top),
              testing::RefResultToJson(graph, first, plan, expected, top))
        << first.ToString(graph) << " top=" << top;
  }
}

}  // namespace
}  // namespace graphtempo
