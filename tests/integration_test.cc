/// Cross-feature integration scenarios: each test drives several subsystems
/// through a realistic end-to-end pipeline and checks that results are
/// preserved across the seams (generation → serialization → reload →
/// coarsening → exploration → materialization).

#include <gtest/gtest.h>

#include <sstream>

#include "core/coarsen.h"
#include "engine/cube.h"
#include "core/evolution.h"
#include "core/exploration.h"
#include "core/graph_io.h"
#include "core/measures.h"
#include "core/model_adapters.h"
#include "core/naive_exploration.h"
#include "core/operators.h"
#include "core/subgraph.h"
#include "datagen/contact_gen.h"
#include "datagen/dblp_gen.h"
#include "datagen/profiles.h"
#include "tools/cli.h"

namespace graphtempo {
namespace {

datagen::DatasetProfile SmallProfile() {
  datagen::DatasetProfile profile;
  profile.name = "small";
  profile.time_labels = {"y0", "y1", "y2", "y3", "y4", "y5"};
  profile.nodes_per_time = {40, 48, 52, 60, 64, 70};
  profile.edges_per_time = {90, 110, 120, 140, 150, 170};
  return profile;
}

TEST(IntegrationTest, SerializeReloadPreservesExploration) {
  // Generate → explore → serialize → reload → explore again: identical pairs.
  TemporalGraph graph = datagen::GenerateDblpWithProfile(SmallProfile(), {});

  ExplorationSpec spec;
  spec.event = EventType::kStability;
  spec.semantics = ExtensionSemantics::kIntersection;
  spec.reference = ReferenceEnd::kOld;
  spec.selector.kind = EntitySelector::Kind::kEdges;
  spec.selector.attrs = ResolveAttributes(graph, {"gender"});
  spec.k = 2;
  ExplorationResult before = Explore(graph, spec);

  std::ostringstream out;
  WriteGraph(graph, &out);
  std::istringstream in(out.str());
  std::string error;
  std::optional<TemporalGraph> reloaded = ReadGraph(&in, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;

  ExplorationSpec reloaded_spec = spec;
  reloaded_spec.selector.attrs = ResolveAttributes(*reloaded, {"gender"});
  ExplorationResult after = Explore(*reloaded, reloaded_spec);
  EXPECT_EQ(before.pairs, after.pairs);
}

TEST(IntegrationTest, ExtractThenCoarsenThenAggregate) {
  // Operator result → standalone subgraph → coarse view → aggregation: the
  // pipeline must agree with computing directly on the original graph.
  TemporalGraph graph = datagen::GenerateDblpWithProfile(SmallProfile(), {});
  const std::size_t n = graph.num_times();

  // Keep only entities alive in the second half.
  IntervalSet late = IntervalSet::Range(n, 3, 5);
  TemporalGraph sub = ExtractSubgraph(graph, UnionOp(graph, late, late));
  TemporalGraph coarse = CoarsenTime(sub, {{"late", {3, 5}}});

  std::vector<AttrRef> attrs = ResolveAttributes(coarse, {"gender"});
  GraphView whole = UnionOp(coarse, IntervalSet::Point(1, 0), IntervalSet::Point(1, 0));
  AggregateGraph agg = Aggregate(coarse, whole, attrs, AggregationSemantics::kDistinct);

  // DIST gender counts on the coarse point == distinct nodes of the original
  // union view, split by gender.
  GraphView direct = UnionOp(graph, late, late);
  std::vector<AttrRef> orig_attrs = ResolveAttributes(graph, {"gender"});
  AggregateGraph expected =
      Aggregate(graph, direct, orig_attrs, AggregationSemantics::kDistinct);
  EXPECT_EQ(agg.TotalNodeWeight(), expected.TotalNodeWeight());
  EXPECT_EQ(agg.TotalEdgeWeight(), expected.TotalEdgeWeight());
}

TEST(IntegrationTest, SnapshotAdapterRoundTripPreservesEvolution) {
  TemporalGraph graph = datagen::GenerateDblpWithProfile(SmallProfile(), {});
  TemporalGraph adapted = FromSnapshots(ToSnapshots(graph));
  // Attributes are lost in the snapshot model; compare raw event counts.
  EntitySelector edges;
  edges.kind = EntitySelector::Kind::kEdges;
  for (TimeId t = 0; t + 1 < graph.num_times(); ++t) {
    for (EventType event :
         {EventType::kStability, EventType::kGrowth, EventType::kShrinkage}) {
      EXPECT_EQ(CountEvents(graph, {t, t}, {t + 1, t + 1}, ExtensionSemantics::kUnion,
                            event, edges),
                CountEvents(adapted, {t, t}, {t + 1, t + 1}, ExtensionSemantics::kUnion,
                            event, edges))
          << EventTypeName(event) << " @ " << t;
    }
  }
}

TEST(IntegrationTest, StreamingAppendKeepsExplorationConsistent) {
  // Appending a time point and re-running exploration over the old prefix
  // must not change the old results (new candidates may appear).
  TemporalGraph graph = datagen::GenerateDblpWithProfile(SmallProfile(), {});
  ExplorationSpec spec;
  spec.event = EventType::kGrowth;
  spec.semantics = ExtensionSemantics::kUnion;
  spec.reference = ReferenceEnd::kOld;
  spec.selector.kind = EntitySelector::Kind::kEdges;
  spec.k = 10;
  ExplorationResult before = Explore(graph, spec);

  TimeId t_new = graph.AppendTimePoint("y6");
  // Copy a few edges forward so the new point is non-trivial.
  int copied = 0;
  for (EdgeId e = 0; e < graph.num_edges() && copied < 30; ++e) {
    if (graph.EdgePresentAt(e, t_new - 1)) {
      graph.SetEdgePresent(e, t_new);
      ++copied;
    }
  }
  ExplorationResult after = Explore(graph, spec);
  // Every pre-append pair that does not touch the new point must re-appear.
  for (const IntervalPair& pair : before.pairs) {
    bool found = false;
    for (const IntervalPair& candidate : after.pairs) {
      if (candidate == pair) {
        found = true;
        break;
      }
    }
    // A pair can only change if its reference could now extend further — for
    // U-Explore with reference kOld, old pairs are still minimal (counts over
    // old candidates are unchanged).
    EXPECT_TRUE(found) << "pair lost after append";
  }
}

TEST(IntegrationTest, ContactPipelineMeasuresAndEvolution) {
  // Contact network: coarsen days into the three policy phases, then compare
  // cross-class contact minutes per phase — the full epidemic story in one
  // pipeline (generation → coarsening → measures).
  datagen::ContactOptions options;
  TemporalGraph graph = datagen::GenerateContactNetwork(options);
  std::vector<TimeGroup> phases = {
      {"before", {0, static_cast<TimeId>(options.outbreak_day - 1)}},
      {"closure",
       {static_cast<TimeId>(options.outbreak_day),
        static_cast<TimeId>(options.reopen_day - 1)}},
      {"after",
       {static_cast<TimeId>(options.reopen_day),
        static_cast<TimeId>(options.num_days - 1)}},
  };
  TemporalGraph coarse = CoarsenTime(graph, phases);
  ASSERT_EQ(coarse.num_times(), 3u);

  std::vector<AttrRef> klass = ResolveAttributes(coarse, {"class"});
  auto cross_pairs_at = [&](TimeId phase) {
    GraphView view = Project(coarse, IntervalSet::Point(3, phase));
    AggregateGraph agg =
        Aggregate(coarse, view, klass, AggregationSemantics::kDistinct);
    Weight cross = 0;
    agg.ForEachEdge([&](const AttrTuple& src, const AttrTuple& dst, const auto& weight) {
      const AttrTuplePair pair{src, dst};
      if (!(pair.src == pair.dst)) cross += weight;
    });
    return cross;
  };
  Weight before = cross_pairs_at(0);
  Weight during = cross_pairs_at(1);
  Weight after = cross_pairs_at(2);
  EXPECT_LT(during * 2, before);  // closure slashed cross-class contact
  EXPECT_GT(after * 2, before);   // reopening restored it
}

TEST(IntegrationTest, CubeAgreesWithExplorationCounts) {
  // ALL union weights from the cube vs. the exploration engine's raw edge
  // counts: internally different code paths over the same definitions.
  TemporalGraph graph = datagen::GenerateDblpWithProfile(SmallProfile(), {});
  const std::size_t n = graph.num_times();
  std::vector<AttrRef> gender = ResolveAttributes(graph, {"gender"});
  AggregateCube cube(&graph, gender);
  cube.Materialize();
  for (TimeId t = 0; t + 1 < n; ++t) {
    // Stability edges between t and t+1, per the engine...
    EntitySelector edges;
    edges.kind = EntitySelector::Kind::kEdges;
    Weight stable = CountEvents(graph, {t, t}, {t + 1, t + 1},
                                ExtensionSemantics::kUnion, EventType::kStability, edges);
    Weight growth = CountEvents(graph, {t, t}, {t + 1, t + 1},
                                ExtensionSemantics::kUnion, EventType::kGrowth, edges);
    // ...must satisfy |E(t+1)| = stable + growth, with |E(t+1)| read from the
    // cube's per-point ALL aggregate.
    Weight at_next = cube.Query(IntervalSet::Point(n, t + 1)).TotalEdgeWeight();
    EXPECT_EQ(stable + growth, at_next) << "t=" << t;
  }
}

TEST(IntegrationTest, CliDrivesGeneratedDatasetEndToEnd) {
  // generate → info → aggregate → explore entirely through the CLI.
  std::string path = ::testing::TempDir() + "/graphtempo_integration.tsv";
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(cli::RunCli({"generate", "contact", path}, out, err), 0) << err.str();
  ASSERT_EQ(cli::RunCli({"info", path}, out, err), 0) << err.str();
  ASSERT_EQ(cli::RunCli({"aggregate", path, "--attrs", "grade", "--op", "union",
                         "--t1", "day1..day5"},
                        out, err), 0)
      << err.str();
  ASSERT_EQ(cli::RunCli({"explore", path, "--event", "shrinkage", "--semantics",
                         "union", "--reference", "new", "--k", "50"},
                        out, err), 0)
      << err.str();
  EXPECT_NE(out.str().find("minimal interval pairs"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace graphtempo
