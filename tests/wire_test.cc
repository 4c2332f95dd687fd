#include "engine/wire.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "datagen/random.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "reference_impl.h"
#include "test_graphs.h"
#include "util/json.h"

namespace graphtempo::engine::wire {
namespace {

class WireTest : public ::testing::Test {
 protected:
  WireTest() : graph_(graphtempo::testing::BuildPaperGraph()) {}

  json::Value Request(const std::string& text) {
    std::string error;
    std::optional<json::Value> parsed = json::Parse(text, &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    return std::move(*parsed);
  }

  TemporalGraph graph_;
};

// --- ParseTimePoint / ParseInterval ------------------------------------------------

TEST_F(WireTest, TimePointByLabelAndIndex) {
  std::string error;
  EXPECT_EQ(ParseTimePoint(graph_, "t1", &error), TimeId{1});
  EXPECT_EQ(ParseTimePoint(graph_, "2", &error), TimeId{2});
}

TEST_F(WireTest, UnknownTimePointSetsDiagnostic) {
  std::string error;
  EXPECT_FALSE(ParseTimePoint(graph_, "t9", &error).has_value());
  EXPECT_EQ(error, "unknown time point 't9'");
}

TEST_F(WireTest, IntervalPointAndRange) {
  std::string error;
  std::optional<IntervalSet> point = ParseInterval(graph_, "t1", &error);
  ASSERT_TRUE(point.has_value());
  EXPECT_EQ(point->First(), TimeId{1});
  EXPECT_EQ(point->Last(), TimeId{1});
  std::optional<IntervalSet> range = ParseInterval(graph_, "t0..t2", &error);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->First(), TimeId{0});
  EXPECT_EQ(range->Last(), TimeId{2});
}

// Regression: both endpoints used to be parsed even after the first failed,
// producing two diagnostics for one bad range. The parse must short-circuit.
TEST_F(WireTest, BadFirstEndpointShortCircuits) {
  std::string error;
  EXPECT_FALSE(ParseInterval(graph_, "t7..t9", &error).has_value());
  EXPECT_EQ(error, "unknown time point 't7'");  // only the first endpoint
}

TEST_F(WireTest, BadSecondEndpointReported) {
  std::string error;
  EXPECT_FALSE(ParseInterval(graph_, "t0..t9", &error).has_value());
  EXPECT_EQ(error, "unknown time point 't9'");
}

TEST_F(WireTest, InvertedRangeRejected) {
  std::string error;
  EXPECT_FALSE(ParseInterval(graph_, "t2..t0", &error).has_value());
  EXPECT_EQ(error, "inverted range 't2..t0'");
}

// --- BindQuerySpec -----------------------------------------------------------------

TEST_F(WireTest, BindsMinimalRequestWithDefaults) {
  std::string error;
  RequestOptions options;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_, Request(R"({"t1":"t0","attrs":["gender"]})"), &options, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->op, TemporalOperatorKind::kUnion);
  EXPECT_EQ(spec->semantics, AggregationSemantics::kDistinct);
  EXPECT_EQ(spec->grouping, GroupingStrategy::kAuto);
  EXPECT_FALSE(spec->symmetrize);
  EXPECT_EQ(spec->t2, spec->t1);  // t2 falls back to t1, like the CLI
  EXPECT_FALSE(options.explain);
  EXPECT_EQ(options.top, 0u);
}

TEST_F(WireTest, BindsFullRequest) {
  std::string error;
  RequestOptions options;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_,
      Request(R"({"op":"intersection","t1":"t0..t1","t2":"t2",
                  "attrs":["gender","publications"],"semantics":"all",
                  "grouping":"hash","symmetrize":true,"explain":true,"top":5})"),
      &options, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->op, TemporalOperatorKind::kIntersection);
  EXPECT_EQ(spec->semantics, AggregationSemantics::kAll);
  EXPECT_EQ(spec->grouping, GroupingStrategy::kHash);
  EXPECT_TRUE(spec->symmetrize);
  EXPECT_EQ(spec->attrs.size(), 2u);
  EXPECT_TRUE(options.explain);
  EXPECT_EQ(options.top, 5u);
}

TEST_F(WireTest, BindRejectsMissingFields) {
  std::string error;
  EXPECT_FALSE(
      BindQuerySpec(graph_, Request(R"({"attrs":["gender"]})"), nullptr, &error)
          .has_value());
  EXPECT_NE(error.find("'t1' is required"), std::string::npos);
  EXPECT_FALSE(
      BindQuerySpec(graph_, Request(R"({"t1":"t0"})"), nullptr, &error).has_value());
  EXPECT_NE(error.find("'attrs' is required"), std::string::npos);
}

TEST_F(WireTest, BindRejectsBadValues) {
  std::string error;
  EXPECT_FALSE(BindQuerySpec(graph_,
                             Request(R"({"op":"smoosh","t1":"t0","attrs":["gender"]})"),
                             nullptr, &error)
                   .has_value());
  EXPECT_NE(error.find("unknown op 'smoosh'"), std::string::npos);
  EXPECT_FALSE(
      BindQuerySpec(graph_, Request(R"({"t1":"t0","attrs":["nope"]})"), nullptr, &error)
          .has_value());
  EXPECT_NE(error.find("unknown attribute 'nope'"), std::string::npos);
  EXPECT_FALSE(BindQuerySpec(
                   graph_,
                   Request(R"({"t1":"t0","attrs":["gender"],"semantics":"some"})"),
                   nullptr, &error)
                   .has_value());
  EXPECT_NE(error.find("'semantics' must be dist or all"), std::string::npos);
}

TEST_F(WireTest, BindRejectsNonObject) {
  std::string error;
  EXPECT_FALSE(BindQuerySpec(graph_, Request("[1,2]"), nullptr, &error).has_value());
  EXPECT_NE(error.find("must be a JSON object"), std::string::npos);
}

// --- ResultToJson / PlanToJson -----------------------------------------------------

TEST_F(WireTest, ResultSerializationIsDeterministic) {
  std::string error;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_,
      Request(R"({"op":"union","t1":"t0","t2":"t1","attrs":["gender","publications"]})"),
      nullptr, &error);
  ASSERT_TRUE(spec.has_value()) << error;

  QueryEngine engine_a(&graph_);
  QueryEngine engine_b(&graph_);
  std::string a = ResultToJson(graph_, *spec, engine_a.Plan(*spec),
                               engine_a.Execute(*spec), 0);
  std::string b = ResultToJson(graph_, *spec, engine_b.Plan(*spec),
                               engine_b.Execute(*spec), 0);
  EXPECT_EQ(a, b);  // independent engines, identical bytes

  std::optional<json::Value> parsed = json::Parse(a, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("semantics")->AsString(), "DIST");
  EXPECT_EQ(parsed->Find("route")->AsString(), "direct");
}

TEST_F(WireTest, TopCapsRowsButNotCounts) {
  std::string error;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_,
      Request(R"({"op":"union","t1":"t0","t2":"t1","attrs":["gender","publications"]})"),
      nullptr, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  QueryEngine engine(&graph_);
  AggregateGraph result = engine.Execute(*spec);
  std::string capped = ResultToJson(graph_, *spec, engine.Plan(*spec), result, 1);
  std::optional<json::Value> parsed = json::Parse(capped, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("nodes")->AsArray().size(), 1u);
  EXPECT_EQ(parsed->Find("node_count")->AsUint64().value_or(0),
            result.NodeCount());  // counts report full sizes
}

TEST_F(WireTest, PlanToJsonRoundTripsCostRoutedPlans) {
  std::string error;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_, Request(R"({"op":"union","t1":"t0..t1","attrs":["gender"],
                          "semantics":"all"})"),
      nullptr, &error);
  ASSERT_TRUE(spec.has_value()) << error;

  QueryEngine::Config config;
  config.planner = PlannerMode::kCost;
  QueryEngine engine(&graph_, config);
  engine.EnableMaterialization(ResolveAttributes(graph_, {"gender", "publications"}));

  std::optional<json::Value> parsed =
      json::Parse(PlanToJson(engine.Plan(*spec)), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("planner")->AsString(), "cost");
  ASSERT_TRUE(parsed->Find("cost_direct_us")->is_number());
  EXPECT_GT(parsed->Find("cost_direct_us")->AsDouble(), 0.0);
  // Derivable spec with a fresh store: the materialized estimate is real.
  ASSERT_TRUE(parsed->Find("cost_materialized_us")->is_number());
  EXPECT_GT(parsed->Find("cost_materialized_us")->AsDouble(), 0.0);
  EXPECT_NE(parsed->Find("explain")->AsString().find("planner=cost"),
            std::string::npos);

  // Without a store the materialized route is unavailable: null on the wire.
  QueryEngine bare(&graph_, config);
  std::optional<json::Value> unpriced =
      json::Parse(PlanToJson(bare.Plan(*spec)), &error);
  ASSERT_TRUE(unpriced.has_value()) << error;
  EXPECT_TRUE(unpriced->Find("cost_materialized_us")->is_null());
  EXPECT_EQ(unpriced->Find("route")->AsString(), "direct");
}

TEST_F(WireTest, BindsEvolutionKind) {
  std::string error;
  RequestOptions options;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_,
      Request(R"({"kind":"evolution","t1":"t0..t1","t2":"t2","attrs":["gender"]})"),
      &options, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->kind, QueryKind::kEvolution);
  EXPECT_EQ(spec->t1.First(), TimeId{0});
  EXPECT_EQ(spec->t2.First(), TimeId{2});

  QueryEngine engine(&graph_);
  const QueryResult result = engine.ExecuteResult(*spec);
  std::optional<json::Value> parsed = json::Parse(
      QueryResultToJson(graph_, *spec, engine.Plan(*spec), result, 0), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("kind")->AsString(), "evolution");
  EXPECT_GE(parsed->Find("nodes")->AsArray().size(), 1u);

  // Evolution requires both intervals explicitly — no t2-defaults-to-t1.
  EXPECT_FALSE(BindQuerySpec(graph_,
                             Request(R"({"kind":"evolution","t1":"t0",
                                         "attrs":["gender"]})"),
                             nullptr, &error)
                   .has_value());
  EXPECT_NE(error.find("'t2' is required"), std::string::npos);
}

TEST_F(WireTest, BindsExploreKind) {
  std::string error;
  RequestOptions options;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_,
      Request(R"({"kind":"explore","event":"growth","select":"edges","k":1})"),
      &options, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->kind, QueryKind::kExplore);
  EXPECT_EQ(spec->explore.event, EventType::kGrowth);
  // The sweep reads every time point: t1 is bound to the full domain.
  EXPECT_EQ(spec->t1, IntervalSet::All(graph_.num_times()));

  QueryEngine engine(&graph_);
  const QueryResult result = engine.ExecuteResult(*spec);
  std::optional<json::Value> parsed = json::Parse(
      QueryResultToJson(graph_, *spec, engine.Plan(*spec), result, 0), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("kind")->AsString(), "explore");
  EXPECT_TRUE(parsed->Find("pairs")->is_array());

  EXPECT_FALSE(BindQuerySpec(graph_, Request(R"({"kind":"wander","t1":"t0"})"),
                             nullptr, &error)
                   .has_value());
  EXPECT_NE(error.find("unknown kind 'wander'"), std::string::npos);
}

TEST_F(WireTest, AggregateResponsesKeepHistoricalShape) {
  // The aggregate wire format predates query kinds; adding a "kind" field to
  // it would break byte-compatibility with recorded responses.
  std::string error;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_, Request(R"({"t1":"t0","attrs":["gender"]})"), nullptr, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  QueryEngine engine(&graph_);
  std::optional<json::Value> parsed = json::Parse(
      ResultToJson(graph_, *spec, engine.Plan(*spec), engine.Execute(*spec), 0),
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("kind"), nullptr);
  EXPECT_NE(parsed->Find("route"), nullptr);
}

TEST_F(WireTest, PlanToJsonCarriesRouteAndSteps) {
  std::string error;
  std::optional<QuerySpec> spec = BindQuerySpec(
      graph_, Request(R"({"t1":"t0","attrs":["gender"]})"), nullptr, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  QueryEngine engine(&graph_);
  std::string plan_json = PlanToJson(engine.Plan(*spec));
  std::optional<json::Value> parsed = json::Parse(plan_json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->Find("route")->AsString(), "direct");
  EXPECT_FALSE(parsed->Find("stale_fallback")->AsBool());
  EXPECT_GE(parsed->Find("steps")->AsArray().size(), 2u);
  EXPECT_NE(parsed->Find("explain")->AsString().find("route=direct"),
            std::string::npos);
}

// --- Direct writers vs the reference renderers ----------------------------------
//
// Every library writer must produce exactly the bytes of its DOM reference in
// tests/reference_impl.h, on random graphs whose labels need escaping.

/// Labels that exercise every escaping rule: quotes, backslashes, control
/// characters (named and \u-escaped) and multi-byte UTF-8 passed through.
const std::vector<std::string>& TrickyLabels() {
  static const std::vector<std::string> labels = {
      "plain", "quo\"te", "back\\slash", "new\nline", "tab\tbed",
      "ctl\x01", "caf\xC3\xA9", "\xE2\x82\xAC" "5", "\xF0\x9F\x98\x80", "\"\\\b\f\r"};
  return labels;
}

/// A seeded random graph (datagen PCG) over 5 time points whose time labels,
/// attribute names and attribute values all need escaping. About one cell in
/// five stays unset, so tuples carry kNoValue (rendered `null`); small value
/// domains make weight ties common.
TemporalGraph BuildEscapingGraph(std::uint64_t seed) {
  datagen::Pcg32 rng(seed);
  const std::vector<std::string>& labels = TrickyLabels();
  auto pick = [&] {
    return labels[rng.NextBelow(static_cast<std::uint32_t>(labels.size()))];
  };
  TemporalGraph graph({"t\"0", "t\\1", "t2", "t\xC3\xA9" "3", "t\t4"});
  const std::uint32_t tag = graph.AddStaticAttribute("ta\"g");
  const std::uint32_t mood = graph.AddTimeVaryingAttribute("mo\\od");
  constexpr std::size_t kNodes = 40;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId n = graph.AddNode("n" + std::to_string(i));
    if (rng.NextBool(0.8)) graph.SetStaticValue(tag, n, pick());
    for (TimeId t = 0; t < graph.num_times(); ++t) {
      if (!rng.NextBool(0.6)) continue;
      graph.SetNodePresent(n, t);
      if (rng.NextBool(0.8)) graph.SetTimeVaryingValue(mood, n, t, pick());
    }
  }
  for (NodeId u = 0; u < kNodes; ++u) {
    for (NodeId v = 0; v < kNodes; ++v) {
      if (u == v || !rng.NextBool(0.15)) continue;
      for (TimeId t = 0; t < graph.num_times(); ++t) {
        if (graph.NodePresentAt(u, t) && graph.NodePresentAt(v, t) && rng.NextBool(0.6)) {
          graph.SetEdgePresent(graph.GetOrAddEdge(u, v), t);
        }
      }
    }
  }
  return graph;
}

/// `top` values around each section size: 0 (all), 1, n−1, n and n+1.
std::vector<std::size_t> TopsAround(std::initializer_list<std::size_t> sizes) {
  std::set<std::size_t> tops = {0, 1};
  for (std::size_t n : sizes) {
    if (n > 0) tops.insert(n - 1);
    tops.insert(n);
    tops.insert(n + 1);
  }
  return {tops.begin(), tops.end()};
}

/// Aggregate specs over every operator, attribute order and semantics.
std::vector<QuerySpec> AggregateSpecs(const TemporalGraph& graph) {
  const std::size_t n = graph.num_times();
  const AttrRef tag = graph.FindAttribute("ta\"g").value();
  const AttrRef mood = graph.FindAttribute("mo\\od").value();
  std::vector<QuerySpec> specs;
  for (const std::vector<AttrRef>& attrs :
       {std::vector<AttrRef>{tag}, std::vector<AttrRef>{mood},
        std::vector<AttrRef>{tag, mood}, std::vector<AttrRef>{mood, tag}}) {
    for (TemporalOperatorKind op :
         {TemporalOperatorKind::kProject, TemporalOperatorKind::kUnion,
          TemporalOperatorKind::kIntersection, TemporalOperatorKind::kDifference}) {
      for (AggregationSemantics semantics :
           {AggregationSemantics::kDistinct, AggregationSemantics::kAll}) {
        QuerySpec spec;
        spec.op = op;
        spec.t1 = op == TemporalOperatorKind::kProject ? IntervalSet::Point(n, 1)
                                                       : IntervalSet::Range(n, 0, 2);
        spec.t2 = op == TemporalOperatorKind::kProject ? IntervalSet(n)
                                                       : IntervalSet::Range(n, 2, 4);
        spec.attrs = attrs;
        spec.semantics = semantics;
        specs.push_back(spec);
      }
    }
  }
  return specs;
}

/// True when two adjacent rows of `ranking` (indices into `rows`) tie on
/// `weight_of`, i.e. the order between them was decided by tuple codes.
template <typename W, typename WeightOf>
bool HasTie(std::span<const GroupRow<W>> rows, const std::vector<std::uint32_t>& ranking,
            WeightOf weight_of) {
  for (std::size_t i = 1; i < ranking.size(); ++i) {
    if (weight_of(rows[ranking[i - 1]].weight) == weight_of(rows[ranking[i]].weight)) {
      return true;
    }
  }
  return false;
}

class WireDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spill_dir_ = ::testing::TempDir() + "/gt_wire_spill_" + std::to_string(::getpid());
    std::filesystem::remove_all(spill_dir_);
  }
  void TearDown() override { std::filesystem::remove_all(spill_dir_); }

  std::string spill_dir_;
};

TEST_F(WireDifferentialTest, AggregateWriterMatchesReference) {
  bool saw_null = false;
  bool saw_tie = false;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const TemporalGraph graph = BuildEscapingGraph(seed);
    QueryEngine engine(&graph);
    for (const QuerySpec& spec : AggregateSpecs(graph)) {
      const QueryPlan plan = engine.Plan(spec);
      const QueryResult computed = engine.ExecuteResult(spec);
      const QueryEngine::CacheStats before = engine.cache_stats();
      const QueryResult hit = engine.ExecuteResult(spec);
      ASSERT_EQ(engine.cache_stats().hits, before.hits + 1) << spec.ToString(graph);
      const AggregateGraph& aggregate = computed.aggregate();
      auto weight = [](Weight w) { return w; };
      saw_tie |= HasTie(aggregate.nodes(), computed.ranking().nodes, weight) ||
                 HasTie(aggregate.edges(), computed.ranking().edges, weight);
      for (std::size_t top : TopsAround({aggregate.NodeCount(), aggregate.EdgeCount()})) {
        const std::string expected =
            graphtempo::testing::RefResultToJson(graph, spec, plan, aggregate, top);
        EXPECT_EQ(QueryResultToJson(graph, spec, plan, computed, top), expected)
            << spec.ToString(graph) << " top=" << top;
        EXPECT_EQ(QueryResultToJson(graph, spec, plan, hit, top), expected)
            << spec.ToString(graph) << " top=" << top << " (cache hit)";
        EXPECT_EQ(ResultToJson(graph, spec, plan, aggregate, top), expected)
            << spec.ToString(graph) << " top=" << top;
        saw_null |= expected.find("null") != std::string::npos;
      }
    }
  }
  EXPECT_TRUE(saw_null) << "no kNoValue cell reached a response";
  EXPECT_TRUE(saw_tie) << "no weight tie was decided by tuple codes";
}

TEST_F(WireDifferentialTest, EvolutionWriterMatchesReference) {
  bool saw_tie = false;
  for (std::uint64_t seed : {4u, 5u}) {
    const TemporalGraph graph = BuildEscapingGraph(seed);
    const std::size_t n = graph.num_times();
    QueryEngine engine(&graph);
    for (const QuerySpec& aggregate_spec : AggregateSpecs(graph)) {
      if (aggregate_spec.op != TemporalOperatorKind::kUnion ||
          aggregate_spec.semantics != AggregationSemantics::kDistinct) {
        continue;  // one evolution spec per attribute list
      }
      QuerySpec spec;
      spec.kind = QueryKind::kEvolution;
      spec.t1 = IntervalSet::Range(n, 0, 1);
      spec.t2 = IntervalSet::Range(n, 2, 4);
      spec.attrs = aggregate_spec.attrs;
      const QueryPlan plan = engine.Plan(spec);
      const QueryResult computed = engine.ExecuteResult(spec);
      const QueryResult hit = engine.ExecuteResult(spec);
      const EvolutionAggregate& evolution = computed.evolution();
      auto total = [](const EvolutionWeights& w) {
        return w.stability + w.growth + w.shrinkage;
      };
      saw_tie |= HasTie(evolution.nodes(), computed.ranking().nodes, total) ||
                 HasTie(evolution.edges(), computed.ranking().edges, total);
      for (std::size_t top : TopsAround({evolution.NodeCount(), evolution.EdgeCount()})) {
        const std::string expected =
            graphtempo::testing::RefEvolutionToJson(graph, spec, plan, evolution, top);
        EXPECT_EQ(QueryResultToJson(graph, spec, plan, computed, top), expected)
            << spec.ToString(graph) << " top=" << top;
        EXPECT_EQ(QueryResultToJson(graph, spec, plan, hit, top), expected)
            << spec.ToString(graph) << " top=" << top << " (cache hit)";
        EXPECT_EQ(EvolutionToJson(graph, spec, plan, evolution, top), expected)
            << spec.ToString(graph) << " top=" << top;
      }
    }
  }
  EXPECT_TRUE(saw_tie) << "no total-weight tie was decided by tuple codes";
}

TEST_F(WireDifferentialTest, ExplorationWriterMatchesReference) {
  const TemporalGraph graph = BuildEscapingGraph(6);
  QueryEngine engine(&graph);
  std::size_t pairs_seen = 0;
  for (EventType event : {EventType::kStability, EventType::kGrowth, EventType::kShrinkage}) {
    for (ExtensionSemantics semantics :
         {ExtensionSemantics::kUnion, ExtensionSemantics::kIntersection}) {
      for (ReferenceEnd reference : {ReferenceEnd::kOld, ReferenceEnd::kNew}) {
        QuerySpec spec;
        spec.kind = QueryKind::kExplore;
        spec.t1 = IntervalSet::All(graph.num_times());
        spec.explore.event = event;
        spec.explore.semantics = semantics;
        spec.explore.reference = reference;
        spec.explore.k = 3;
        const QueryPlan plan = engine.Plan(spec);
        const QueryResult computed = engine.ExecuteResult(spec);
        const ExplorationResult& exploration = computed.exploration();
        pairs_seen += exploration.pairs.size();
        for (std::size_t top : TopsAround({exploration.pairs.size()})) {
          const std::string expected = graphtempo::testing::RefExplorationToJson(
              graph, spec, plan, exploration, top);
          EXPECT_EQ(QueryResultToJson(graph, spec, plan, computed, top), expected)
              << spec.ToString(graph) << " top=" << top;
          EXPECT_EQ(ExplorationToJson(graph, spec, plan, exploration, top), expected)
              << spec.ToString(graph) << " top=" << top;
        }
      }
    }
  }
  EXPECT_GT(pairs_seen, 0u) << "no exploration pair reached a response";
}

TEST_F(WireDifferentialTest, EmptyAnswersMatchReference) {
  const TemporalGraph graph = BuildEscapingGraph(7);
  QueryEngine engine(&graph);
  QuerySpec spec = AggregateSpecs(graph).front();
  const QueryPlan plan = engine.Plan(spec);
  for (std::size_t top : {0u, 1u, 2u}) {
    EXPECT_EQ(ResultToJson(graph, spec, plan, AggregateGraph{}, top),
              graphtempo::testing::RefResultToJson(graph, spec, plan, AggregateGraph{}, top));
    EXPECT_EQ(QueryResultToJson(graph, spec, plan, QueryResult(AggregateGraph{}), top),
              graphtempo::testing::RefResultToJson(graph, spec, plan, AggregateGraph{}, top));
    EXPECT_EQ(EvolutionToJson(graph, spec, plan, EvolutionAggregate{}, top),
              graphtempo::testing::RefEvolutionToJson(graph, spec, plan,
                                                      EvolutionAggregate{}, top));
    EXPECT_EQ(ExplorationToJson(graph, spec, plan, ExplorationResult{}, top),
              graphtempo::testing::RefExplorationToJson(graph, spec, plan,
                                                        ExplorationResult{}, top));
  }
}

TEST_F(WireDifferentialTest, PlanWriterMatchesReference) {
  const TemporalGraph graph = BuildEscapingGraph(8);
  const AttrRef tag = graph.FindAttribute("ta\"g").value();
  const AttrRef mood = graph.FindAttribute("mo\\od").value();
  QueryEngine::Config config;
  config.planner = PlannerMode::kCost;  // both cost estimates priced, non-integral
  QueryEngine priced(&graph, config);
  priced.EnableMaterialization({tag, mood});
  QueryEngine bare(&graph);  // no store: cost_materialized_us renders null
  std::vector<QuerySpec> specs = AggregateSpecs(graph);
  QuerySpec evolution;
  evolution.kind = QueryKind::kEvolution;
  evolution.t1 = IntervalSet::Range(graph.num_times(), 0, 1);
  evolution.t2 = IntervalSet::Range(graph.num_times(), 2, 4);
  evolution.attrs = {tag, mood};
  specs.push_back(evolution);
  QuerySpec explore;
  explore.kind = QueryKind::kExplore;
  explore.t1 = IntervalSet::All(graph.num_times());
  specs.push_back(explore);
  bool saw_materialized = false;
  for (const QuerySpec& spec : specs) {
    for (QueryEngine* engine : {&priced, &bare}) {
      const QueryPlan plan = engine->Plan(spec);
      saw_materialized |= plan.route == PlanRoute::kMaterializedDerivation;
      EXPECT_EQ(PlanToJson(plan), graphtempo::testing::RefPlanToJson(plan))
          << spec.ToString(graph);
    }
  }
  EXPECT_TRUE(saw_materialized);
}

TEST_F(WireDifferentialTest, SpillReloadedAnswerMatchesReference) {
  const TemporalGraph graph = BuildEscapingGraph(9);
  QueryEngine::Config config;
  config.spill_dir = spill_dir_;
  config.cache_capacity = 1;  // the second distinct answer evicts the first
  QueryEngine engine(&graph, config);
  const std::vector<QuerySpec> specs = AggregateSpecs(graph);
  const QuerySpec& first = specs[2];  // {tag} union, DIST
  const QuerySpec& second = specs[3];
  const QueryPlan plan = engine.Plan(first);
  const AggregateGraph computed = engine.Execute(first);
  engine.Execute(second);  // spills `first`

  const obs::MetricsSnapshot before = obs::Registry::Instance().Snapshot();
  const QueryResult reloaded = engine.ExecuteResult(first);
  const obs::MetricsSnapshot after = obs::Registry::Instance().Snapshot();
  ASSERT_EQ(after.CounterValue("engine/result_reload") -
                before.CounterValue("engine/result_reload"),
            1u);
  for (std::size_t top : TopsAround({computed.NodeCount(), computed.EdgeCount()})) {
    EXPECT_EQ(QueryResultToJson(graph, first, plan, reloaded, top),
              graphtempo::testing::RefResultToJson(graph, first, plan, computed, top))
        << "top=" << top;
  }
}

}  // namespace
}  // namespace graphtempo::engine::wire
