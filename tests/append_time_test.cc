/// Streaming time-domain growth: `TemporalGraph::AppendTimePoint` plus the
/// incremental `Refresh()` maintenance of the materialization layers — the
/// machinery behind the interactive deployment the paper's conclusion
/// sketches (a new snapshot arrives, analyses continue on the grown domain).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "engine/cube.h"
#include "core/evolution.h"
#include "core/exploration.h"
#include "core/graph_io.h"
#include "core/materialization.h"
#include "core/operators.h"
#include "datagen/random.h"
#include "reference_impl.h"
#include "server/ingest.h"
#include "test_graphs.h"
#include "util/check.h"

namespace graphtempo {
namespace {

using testing::BuildPaperGraph;

// --- Storage layer --------------------------------------------------------------

TEST(TimeVaryingColumnAppendTest, KeepsValuesAndAddsEmptyCells) {
  TimeVaryingColumn column("pubs", 2);
  column.Resize(2);
  column.Set(0, 0, "a");
  column.Set(1, 1, "b");
  column.AppendTimes(2);
  EXPECT_EQ(column.num_times(), 4u);
  EXPECT_EQ(column.size(), 2u);
  EXPECT_EQ(column.ValueAt(0, 0), "a");
  EXPECT_EQ(column.ValueAt(1, 1), "b");
  EXPECT_EQ(column.CodeAt(0, 2), kNoValue);
  EXPECT_EQ(column.CodeAt(1, 3), kNoValue);
  column.Set(0, 3, "c");
  EXPECT_EQ(column.ValueAt(0, 3), "c");
}

// --- TemporalGraph --------------------------------------------------------------

TEST(AppendTimePointTest, GrowsTheDomain) {
  TemporalGraph graph = BuildPaperGraph();
  TimeId t3 = graph.AppendTimePoint("t3");
  EXPECT_EQ(t3, 3u);
  EXPECT_EQ(graph.num_times(), 4u);
  EXPECT_EQ(graph.time_label(3), "t3");
  EXPECT_EQ(graph.FindTime("t3"), std::optional<TimeId>(3u));
  // Nothing exists at the new point yet.
  EXPECT_EQ(graph.NodesAt(3), 0u);
  EXPECT_EQ(graph.EdgesAt(3), 0u);
  // Old data intact.
  EXPECT_EQ(graph.NodesAt(0), 4u);
  EXPECT_EQ(graph.EdgesAt(2), 3u);
}

TEST(AppendTimePointTest, NewSnapshotIsFullyUsable) {
  TemporalGraph graph = BuildPaperGraph();
  AttrRef pubs_ref = *graph.FindAttribute("publications");
  graph.AppendTimePoint("t3");

  // Ingest the new snapshot: u2 and u5 collaborate; u5 publishes 2.
  NodeId u2 = *graph.FindNode("u2");
  NodeId u5 = *graph.FindNode("u5");
  EdgeId e = *graph.FindEdge(u2, u5);
  graph.SetEdgePresent(e, 3);
  graph.SetTimeVaryingValue(pubs_ref.index, u2, 3, "1");
  graph.SetTimeVaryingValue(pubs_ref.index, u5, 3, "2");

  EXPECT_EQ(graph.NodesAt(3), 2u);
  EXPECT_EQ(graph.EdgesAt(3), 1u);
  EXPECT_EQ(graph.ValueName(pubs_ref, graph.ValueCodeAt(pubs_ref, u5, 3)), "2");
  // Old cells of the grown column survive.
  EXPECT_EQ(graph.ValueName(pubs_ref, graph.ValueCodeAt(pubs_ref, u5, 2)), "3");

  // Operators across the grown domain.
  GraphView stable = IntersectionOp(graph, IntervalSet::Point(4, 2),
                                    IntervalSet::Point(4, 3));
  EXPECT_EQ(stable.EdgeCount(), 1u);  // (u2,u5) exists at t2 and t3
}

TEST(AppendTimePointTest, OperatorsRejectStaleIntervals) {
  TemporalGraph graph = BuildPaperGraph();
  IntervalSet stale = IntervalSet::Point(3, 0);
  graph.AppendTimePoint("t3");
  EXPECT_DEATH(Project(graph, stale), "different time domain");
}

/// A graph grown point by point to 130 time points, so that presence read
/// per entity spans three 64-bit words: entities appear at 63/64/65 and
/// 127/128/129, on both sides of each word boundary.
TEST(AppendTimePointTest, PresenceAcrossWordBoundaries) {
  TemporalGraph graph({"p0"});
  const std::uint32_t color = graph.AddStaticAttribute("color");
  const std::uint32_t level = graph.AddTimeVaryingAttribute("level");
  const NodeId a = graph.AddNode("a");
  const NodeId b = graph.AddNode("b");
  const NodeId c = graph.AddNode("c");
  graph.SetStaticValue(color, a, "red");
  graph.SetStaticValue(color, b, "blue");
  graph.SetStaticValue(color, c, "red");
  const EdgeId ab = graph.GetOrAddEdge(a, b);
  const EdgeId bc = graph.GetOrAddEdge(b, c);
  for (std::size_t t = 1; t < 130; ++t) graph.AppendTimePoint("p" + std::to_string(t));
  ASSERT_EQ(graph.num_times(), 130u);
  const std::size_t n = graph.num_times();

  IntervalSet boundary(n);
  for (TimeId t : {63u, 64u, 65u, 127u, 128u, 129u}) {
    boundary.Add(t);
    graph.SetEdgePresent(ab, t);
    graph.SetTimeVaryingValue(level, a, t, t < 100 ? "low" : "high");
    graph.SetTimeVaryingValue(level, b, t, t % 2 == 0 ? "low" : "mid");
  }
  graph.SetEdgePresent(bc, 64);
  graph.SetEdgePresent(bc, 128);
  graph.SetNodePresent(c, 0);
  graph.SetTimeVaryingValue(level, c, 128, "high");

  EXPECT_EQ(graph.NodeTimes(a), boundary);
  EXPECT_EQ(graph.NodeTimes(b), boundary);
  EXPECT_EQ(graph.EdgeTimes(ab), boundary);
  IntervalSet bc_times(n);
  bc_times.Add(64);
  bc_times.Add(128);
  EXPECT_EQ(graph.EdgeTimes(bc), bc_times);
  bc_times.Add(0);
  EXPECT_EQ(graph.NodeTimes(c), bc_times);
  for (TimeId t = 0; t < n; ++t) {
    EXPECT_EQ(graph.NodePresentAt(a, t), boundary.Contains(t)) << "t=" << t;
    EXPECT_EQ(graph.EdgePresentAt(ab, t), boundary.Contains(t)) << "t=" << t;
  }
  EXPECT_EQ(graph.NodesAt(64), 3u);
  EXPECT_EQ(graph.EdgesAt(129), 1u);

  // Answers over intervals that cross the 64 and 128 boundaries.
  const IntervalSet low = IntervalSet::Range(n, 60, 66);
  const IntervalSet high = IntervalSet::Range(n, 120, 129);
  const IntervalSet across = IntervalSet::Range(n, 62, 129);
  for (const std::vector<std::string>& names :
       std::vector<std::vector<std::string>>{{"color"}, {"level"}, {"color", "level"}}) {
    const std::vector<AttrRef> attrs = ResolveAttributes(graph, names);
    const std::string set = names.size() == 1 ? names[0] : "color,level";
    for (const GraphView& view :
         {UnionOp(graph, low, high), IntersectionOp(graph, low, high),
          DifferenceOp(graph, across, IntervalSet::Point(n, 64)),
          DifferenceOp(graph, high, low), Project(graph, IntervalSet::Point(n, 128)),
          UnionOp(graph, across, across)}) {
      for (const auto semantics :
           {AggregationSemantics::kDistinct, AggregationSemantics::kAll}) {
        EXPECT_EQ(Aggregate(graph, view, attrs, semantics),
                  testing::RefAggregate(graph, view, attrs, semantics))
            << set;
      }
    }
    for (const auto& [t_old, t_new] : std::vector<std::pair<IntervalSet, IntervalSet>>{
             {low, high}, {across, IntervalSet::Point(n, 129)}, {high, across}}) {
      EXPECT_EQ(AggregateEvolution(graph, t_old, t_new, attrs),
                testing::RefAggregateEvolution(graph, t_old, t_new, attrs))
          << set;
    }
  }
}

TEST(AppendTimePointDeath, DuplicateLabelAborts) {
  TemporalGraph graph = BuildPaperGraph();
  EXPECT_DEATH(graph.AppendTimePoint("t1"), "duplicate time label");
}

// --- Appended vs. bulk-loaded graphs ----------------------------------------------
//
// One small evolving graph, described once and built two ways: loaded from a
// TSV of its first points and then grown point by point through the
// changefeed (new time points, nodes first seen late, `va` values, a
// dictionary that grows mid-stream), or loaded in one piece from a TSV of
// every point, where no column ever grows in time. Both must hold the same
// data and answer alike. Dictionary codes may differ between the two, so
// answers are compared by value names.

struct GrowthModel {
  static constexpr std::size_t kTimes = 12;
  static constexpr std::size_t kNodes = 30;
  static constexpr std::size_t kEdges = 60;
  std::vector<std::string> color;                     // per node
  std::vector<std::vector<bool>> node_present;        // [node][t]
  std::vector<std::vector<std::string>> level;        // [node][t], set where present
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::vector<std::vector<bool>> edge_present;        // [edge][t]
};

GrowthModel MakeGrowthModel() {
  datagen::Pcg32 rng(23);
  GrowthModel m;
  m.node_present.assign(GrowthModel::kNodes, std::vector<bool>(GrowthModel::kTimes));
  for (std::size_t n = 0; n < GrowthModel::kNodes; ++n) {
    m.color.push_back("c" + std::to_string(rng.NextBelow(3)));
    for (std::size_t t = 0; t < GrowthModel::kTimes; ++t) {
      m.node_present[n][t] = rng.NextBool(0.4);
    }
  }
  while (m.edges.size() < GrowthModel::kEdges) {
    const std::size_t src = rng.NextBelow(GrowthModel::kNodes);
    const std::size_t dst = rng.NextBelow(GrowthModel::kNodes);
    if (src == dst || std::find(m.edges.begin(), m.edges.end(),
                                std::make_pair(src, dst)) != m.edges.end()) {
      continue;
    }
    m.edges.emplace_back(src, dst);
    std::vector<bool>& present = m.edge_present.emplace_back(GrowthModel::kTimes);
    for (std::size_t t = 0; t < GrowthModel::kTimes; ++t) {
      present[t] = rng.NextBool(0.3);
      if (present[t]) m.node_present[src][t] = m.node_present[dst][t] = true;
    }
  }
  m.level.assign(GrowthModel::kNodes, std::vector<std::string>(GrowthModel::kTimes));
  for (std::size_t n = 0; n < GrowthModel::kNodes; ++n) {
    for (std::size_t t = 0; t < GrowthModel::kTimes; ++t) {
      // Later points draw from a wider domain: the dictionary grows.
      if (m.node_present[n][t]) {
        m.level[n][t] = "l" + std::to_string(rng.NextBelow(t < 3 ? 3 : 6));
      }
    }
  }
  return m;
}

std::string TimeLabel(std::size_t t) { return "p" + std::to_string(t); }
std::string NodeLabel(std::size_t n) { return "v" + std::to_string(n); }

/// The model's first `points` time points as a graph TSV (core/graph_io.h).
std::string GrowthTsv(const GrowthModel& m, std::size_t points) {
  auto presence = [&](const std::vector<bool>& present) {
    std::string bits;
    for (std::size_t t = 0; t < points; ++t) bits += present[t] ? '1' : '0';
    return bits;
  };
  std::string tsv = "!format\tgraphtempo\t1\n!section\ttimes\n";
  for (std::size_t t = 0; t < points; ++t) tsv += TimeLabel(t) + "\n";
  tsv += "!section\tnodes\n";
  for (std::size_t n = 0; n < GrowthModel::kNodes; ++n) {
    tsv += NodeLabel(n) + "\t" + presence(m.node_present[n]) + "\n";
  }
  tsv += "!section\tedges\n";
  for (std::size_t e = 0; e < m.edges.size(); ++e) {
    tsv += NodeLabel(m.edges[e].first) + "\t" + NodeLabel(m.edges[e].second) + "\t" +
           presence(m.edge_present[e]) + "\n";
  }
  tsv += "!section\tstatic\tcolor\n";
  for (std::size_t n = 0; n < GrowthModel::kNodes; ++n) {
    tsv += NodeLabel(n) + "\t" + m.color[n] + "\n";
  }
  tsv += "!section\tvarying\tlevel\n";
  for (std::size_t n = 0; n < GrowthModel::kNodes; ++n) {
    for (std::size_t t = 0; t < points; ++t) {
      if (m.level[n][t].empty()) continue;
      tsv += NodeLabel(n) + "\t" + TimeLabel(t) + "\t" + m.level[n][t] + "\n";
    }
  }
  return tsv;
}

/// The changefeed that grows the model from `first` points to all of them.
std::string GrowthFeed(const GrowthModel& m, std::size_t first) {
  std::string feed;
  for (std::size_t t = first; t < GrowthModel::kTimes; ++t) {
    const std::string label = TimeLabel(t);
    feed += "t " + label + "\n";
    for (std::size_t n = 0; n < GrowthModel::kNodes; ++n) {
      if (m.node_present[n][t]) feed += "n " + NodeLabel(n) + " " + label + "\n";
    }
    for (std::size_t e = 0; e < m.edges.size(); ++e) {
      if (!m.edge_present[e][t]) continue;
      feed += "e " + NodeLabel(m.edges[e].first) + " " + NodeLabel(m.edges[e].second) +
              " " + label + "\n";
    }
    for (std::size_t n = 0; n < GrowthModel::kNodes; ++n) {
      if (!m.level[n][t].empty()) {
        feed += "va level " + NodeLabel(n) + " " + label + " " + m.level[n][t] + "\n";
      }
    }
  }
  return feed;
}

TemporalGraph ReadTsv(const std::string& text) {
  std::istringstream in(text);
  std::string error;
  std::optional<TemporalGraph> graph = ReadGraph(&in, &error);
  GT_CHECK(graph.has_value()) << error;
  return std::move(*graph);
}

std::string WriteTsv(const TemporalGraph& graph) {
  std::ostringstream out;
  WriteGraph(graph, &out);
  return out.str();
}

/// Node and edge groups of an aggregate, keyed by value names.
std::map<std::string, Weight> Named(const TemporalGraph& graph,
                                    const std::vector<AttrRef>& attrs,
                                    const AggregateGraph& aggregate) {
  std::map<std::string, Weight> named;
  aggregate.ForEachNode([&](const AttrTuple& tuple, const auto& weight) {
    named["node " + FormatTuple(graph, attrs, tuple)] = weight;
  });
  aggregate.ForEachEdge(
      [&](const AttrTuple& src, const AttrTuple& dst, const auto& weight) {
    const AttrTuplePair pair{src, dst};
    named["edge " + FormatTuple(graph, attrs, pair.src) + " -> " +
          FormatTuple(graph, attrs, pair.dst)] = weight;
  });
  return named;
}

std::map<std::string, std::vector<Weight>> Named(const TemporalGraph& graph,
                                                 const std::vector<AttrRef>& attrs,
                                                 const EvolutionAggregate& aggregate) {
  std::map<std::string, std::vector<Weight>> named;
  auto weights = [](const EvolutionWeights& w) {
    return std::vector<Weight>{w.stability, w.growth, w.shrinkage};
  };
  aggregate.ForEachNode([&](const AttrTuple& tuple, const auto& w) {
    named["node " + FormatTuple(graph, attrs, tuple)] = weights(w);
  });
  aggregate.ForEachEdge([&](const AttrTuple& src, const AttrTuple& dst, const auto& w) {
    const AttrTuplePair pair{src, dst};
    named["edge " + FormatTuple(graph, attrs, pair.src) + " -> " +
          FormatTuple(graph, attrs, pair.dst)] = weights(w);
  });
  return named;
}

TEST(AppendedGraphTest, AnswersMatchTsvLoadAndReference) {
  const GrowthModel model = MakeGrowthModel();
  TemporalGraph appended = ReadTsv(GrowthTsv(model, 3));
  std::string error;
  const std::optional<std::vector<server::IngestRecord>> records =
      server::ParseIngestBatch(GrowthFeed(model, 3), &error);
  ASSERT_TRUE(records.has_value()) << error;
  for (const server::IngestRecord& record : *records) {
    ASSERT_TRUE(server::ApplyIngestRecord(&appended, record, &error)) << error;
  }
  const TemporalGraph loaded = ReadTsv(GrowthTsv(model, GrowthModel::kTimes));
  ASSERT_EQ(appended.num_times(), GrowthModel::kTimes);
  // Same labels, presence and values, cell by cell.
  EXPECT_EQ(WriteTsv(appended), WriteTsv(loaded));

  const std::size_t n = appended.num_times();
  const std::vector<std::pair<IntervalSet, IntervalSet>> intervals = {
      {IntervalSet::Range(n, 0, 2), IntervalSet::Range(n, 3, 11)},
      {IntervalSet::Range(n, 2, 6), IntervalSet::Range(n, 5, 9)},
      {IntervalSet::Point(n, 10), IntervalSet::Point(n, 11)},
  };
  for (const std::vector<std::string>& names :
       std::vector<std::vector<std::string>>{{"level"}, {"color", "level"}}) {
    const std::vector<AttrRef> attrs_a = ResolveAttributes(appended, names);
    const std::vector<AttrRef> attrs_l = ResolveAttributes(loaded, names);
    const std::string set = names.size() == 1 ? "{level}" : "{color, level}";
    for (const auto& [t1, t2] : intervals) {
      for (const auto semantics :
           {AggregationSemantics::kDistinct, AggregationSemantics::kAll}) {
        for (int op = 0; op < 3; ++op) {
          auto view_of = [&](const TemporalGraph& g) {
            return op == 0 ? UnionOp(g, t1, t2)
                           : op == 1 ? IntersectionOp(g, t1, t2) : DifferenceOp(g, t1, t2);
          };
          const GraphView view_a = view_of(appended);
          const AggregateGraph answer = Aggregate(appended, view_a, attrs_a, semantics);
          EXPECT_EQ(answer, testing::RefAggregate(appended, view_a, attrs_a, semantics))
              << set << " op " << op;
          EXPECT_EQ(Named(appended, attrs_a, answer),
                    Named(loaded, attrs_l,
                          Aggregate(loaded, view_of(loaded), attrs_l, semantics)))
              << set << " op " << op;
        }
      }
      const EvolutionAggregate evolution = AggregateEvolution(appended, t1, t2, attrs_a);
      EXPECT_EQ(Named(appended, attrs_a, evolution),
                Named(appended, attrs_a,
                      testing::RefAggregateEvolution(appended, t1, t2, attrs_a)))
          << set;
      EXPECT_EQ(Named(appended, attrs_a, evolution),
                Named(loaded, attrs_l, AggregateEvolution(loaded, t1, t2, attrs_l)))
          << set;
    }
    for (const auto kind : {EntitySelector::Kind::kNodes, EntitySelector::Kind::kEdges}) {
      for (const auto event : {EventType::kStability, EventType::kGrowth}) {
        ExplorationSpec spec;
        spec.event = event;
        spec.selector.kind = kind;
        spec.k = 2;
        spec.selector.attrs = attrs_a;
        const ExplorationResult from_appended = Explore(appended, spec);
        spec.selector.attrs = attrs_l;
        const ExplorationResult from_loaded = Explore(loaded, spec);
        EXPECT_EQ(from_appended.pairs, from_loaded.pairs) << set;
        EXPECT_EQ(from_appended.evaluations, from_loaded.evaluations) << set;
      }
    }
  }
}

// --- Incremental materialization maintenance ---------------------------------------

TEST(RefreshTest, StoreExtendsIncrementally) {
  TemporalGraph graph = BuildPaperGraph();
  MaterializationStore store(&graph, ResolveAttributes(graph, {"gender"}));
  store.MaterializeAllTimePoints();

  graph.AppendTimePoint("t3");
  NodeId u2 = *graph.FindNode("u2");
  NodeId u4 = *graph.FindNode("u4");
  graph.SetEdgePresent(*graph.FindEdge(u2, u4), 3);
  store.Refresh();

  // The new point's aggregate matches a from-scratch snapshot aggregate.
  GraphView snapshot = Project(graph, IntervalSet::Point(4, 3));
  EXPECT_EQ(store.AtTimePoint(3),
            Aggregate(graph, snapshot, store.attrs(), AggregationSemantics::kAll));

  // Union-ALL across the grown domain works and equals direct computation.
  IntervalSet all = IntervalSet::Range(4, 0, 3);
  GraphView union_view = UnionOp(graph, all, all);
  EXPECT_EQ(store.UnionAllAggregate(all),
            Aggregate(graph, union_view, store.attrs(), AggregationSemantics::kAll));
}

TEST(RefreshTest, StaleStoreQueriesAbort) {
  TemporalGraph graph = BuildPaperGraph();
  MaterializationStore store(&graph, ResolveAttributes(graph, {"gender"}));
  store.MaterializeAllTimePoints();
  graph.AppendTimePoint("t3");
  EXPECT_DEATH(store.UnionAllAggregate(IntervalSet::Range(4, 0, 3)), "stale");
}

TEST(RefreshTest, CubeExtendsBaseAndSubsetLayers) {
  TemporalGraph graph = BuildPaperGraph();
  AggregateCube cube(&graph, ResolveAttributes(graph, {"gender", "publications"}));
  cube.Materialize();
  const std::size_t keep_gender[] = {0};
  cube.Query(IntervalSet::Range(3, 0, 2), keep_gender);  // memoize the subset layer
  std::size_t rollups_before = cube.stats().rollups;

  graph.AppendTimePoint("t3");
  NodeId u2 = *graph.FindNode("u2");
  graph.SetNodePresent(u2, 3);
  AttrRef pubs = *graph.FindAttribute("publications");
  graph.SetTimeVaryingValue(pubs.index, u2, 3, "1");
  cube.Refresh();
  // Exactly one new roll-up: the appended point of the memoized layer.
  EXPECT_EQ(cube.stats().rollups, rollups_before + 1);

  IntervalSet grown = IntervalSet::Range(4, 0, 3);
  GraphView view = UnionOp(graph, grown, grown);
  std::vector<AttrRef> gender_only = ResolveAttributes(graph, {"gender"});
  EXPECT_EQ(cube.Query(grown, keep_gender),
            Aggregate(graph, view, gender_only, AggregationSemantics::kAll));
}

TEST(RefreshTest, CubeSurvivesSuccessiveAppendRounds) {
  // Several append → ingest → Refresh rounds against a cube whose subset
  // layers were memoized *before* the first round. After every round the
  // incrementally maintained cube must answer exactly like a cube built from
  // scratch on the grown graph — and extend each memoized layer by exactly
  // one roll-up per round instead of recomputing it.
  TemporalGraph graph = BuildPaperGraph();
  std::vector<AttrRef> base = ResolveAttributes(graph, {"gender", "publications"});
  AggregateCube cube(&graph, base);
  cube.Materialize();
  const std::size_t keep_gender[] = {0};
  const std::size_t keep_pubs[] = {1};
  // Memoize both single-attribute layers over the initial domain.
  cube.Query(IntervalSet::Range(3, 0, 2), keep_gender);
  cube.Query(IntervalSet::Range(3, 0, 2), keep_pubs);

  AttrRef pubs = *graph.FindAttribute("publications");
  NodeId u1 = *graph.FindNode("u1");
  NodeId u2 = *graph.FindNode("u2");
  NodeId u5 = *graph.FindNode("u5");

  for (int round = 0; round < 3; ++round) {
    const std::size_t n = graph.num_times();
    graph.AppendTimePoint("t" + std::to_string(n));
    const TimeId t = static_cast<TimeId>(n);
    // Alternate the ingested snapshot so every round changes the answers.
    if (round % 2 == 0) {
      graph.SetEdgePresent(*graph.FindEdge(u2, u5), t);
      graph.SetTimeVaryingValue(pubs.index, u2, t, "2");
      graph.SetTimeVaryingValue(pubs.index, u5, t, "1");
    } else {
      graph.SetNodePresent(u1, t);
      graph.SetTimeVaryingValue(pubs.index, u1, t, "3");
    }
    const std::size_t rollups_before = cube.stats().rollups;
    cube.Refresh();
    // One new point × two memoized layers.
    EXPECT_EQ(cube.stats().rollups, rollups_before + 2) << "round " << round;

    AggregateCube fresh(&graph, base);
    fresh.Materialize();
    IntervalSet grown = IntervalSet::All(graph.num_times());
    EXPECT_EQ(cube.Query(grown), fresh.Query(grown)) << "round " << round;
    EXPECT_EQ(cube.Query(grown, keep_gender), fresh.Query(grown, keep_gender))
        << "round " << round;
    EXPECT_EQ(cube.Query(grown, keep_pubs), fresh.Query(grown, keep_pubs))
        << "round " << round;
    // And both agree with the direct computation.
    GraphView view = UnionOp(graph, grown, grown);
    EXPECT_EQ(cube.Query(grown),
              Aggregate(graph, view, base, AggregationSemantics::kAll))
        << "round " << round;
  }
}

}  // namespace
}  // namespace graphtempo
