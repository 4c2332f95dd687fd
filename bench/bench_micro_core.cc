/// google-benchmark micro suite: core primitives plus the ablations called
/// out in DESIGN.md —
///   * the static-attribute aggregation fast path vs. the general path;
///   * the monotonicity-pruned explorer vs. exhaustive enumeration;
///   * answer emission, ranking and response writing, without HTTP;
///   * the cost of appending a time point as the history grows.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "engine/cube.h"
#include "engine/result.h"
#include "engine/wire.h"
#include "core/naive_exploration.h"
#include "core/materialization.h"
#include "core/operators.h"
#include "datagen/dblp_gen.h"
#include "datagen/random.h"
#include "reference_impl.h"
#include "storage/bitset.h"
#include "util/parallel.h"

namespace gt = graphtempo;

namespace {

// --- Bitset index extraction (kernel epilogue) --------------------------------------
//
// ToIndices turns the kernels' result bitsets back into sorted id vectors; the
// countr_zero word walk is O(words + set bits), so the sparse and dense cases
// bracket its cost (docs/KERNELS.md).

gt::DynamicBitset MakeBitsetEveryNth(std::size_t size, std::size_t stride) {
  gt::DynamicBitset bits(size);
  for (std::size_t i = 0; i < size; i += stride) bits.Set(i);
  return bits;
}

void BM_ToIndicesSparse(benchmark::State& state) {
  gt::DynamicBitset bits = MakeBitsetEveryNth(std::size_t{1} << 20, 97);  // ~1%
  for (auto _ : state) {
    std::vector<std::uint32_t> ids = bits.ToIndices();
    benchmark::DoNotOptimize(ids.data());
  }
}
BENCHMARK(BM_ToIndicesSparse);

void BM_ToIndicesDense(benchmark::State& state) {
  gt::DynamicBitset bits(std::size_t{1} << 20);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (i % 4 != 3) bits.Set(i);  // ~75%
  }
  for (auto _ : state) {
    std::vector<std::uint32_t> ids = bits.ToIndices();
    benchmark::DoNotOptimize(ids.data());
  }
}
BENCHMARK(BM_ToIndicesDense);

// --- Temporal operators ------------------------------------------------------------

void BM_UnionOpDblp(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  gt::IntervalSet a = gt::IntervalSet::Range(n, 0, 9);
  gt::IntervalSet b = gt::IntervalSet::Range(n, 10, 20);
  for (auto _ : state) {
    gt::GraphView view = gt::UnionOp(graph, a, b);
    benchmark::DoNotOptimize(view.NodeCount());
  }
}
BENCHMARK(BM_UnionOpDblp);

void BM_UnionOpRowScanDblp(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  gt::IntervalSet a = gt::IntervalSet::Range(n, 0, 9);
  gt::IntervalSet b = gt::IntervalSet::Range(n, 10, 20);
  for (auto _ : state) {
    gt::GraphView view = gt::testing::UnionOpRowScan(graph, a, b);
    benchmark::DoNotOptimize(view.NodeCount());
  }
}
BENCHMARK(BM_UnionOpRowScanDblp);

void BM_IntersectionOpDblp(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  gt::IntervalSet a = gt::IntervalSet::Range(n, 0, 9);
  gt::IntervalSet b = gt::IntervalSet::Range(n, 10, 20);
  for (auto _ : state) {
    gt::GraphView view = gt::IntersectionOp(graph, a, b);
    benchmark::DoNotOptimize(view.NodeCount());
  }
}
BENCHMARK(BM_IntersectionOpDblp);

void BM_DifferenceOpDblp(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  gt::IntervalSet a = gt::IntervalSet::Range(n, 0, 9);
  gt::IntervalSet b = gt::IntervalSet::Range(n, 10, 20);
  for (auto _ : state) {
    gt::GraphView view = gt::DifferenceOp(graph, a, b);
    benchmark::DoNotOptimize(view.NodeCount());
  }
}
BENCHMARK(BM_DifferenceOpDblp);

// --- Aggregation: static and time-varying attribute sets -----------------------------

void BM_AggregateStaticFastPath(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  gt::GraphView view = gt::UnionOp(graph, gt::IntervalSet::Range(n, 0, 9),
                                   gt::IntervalSet::Range(n, 10, 20));
  std::vector<gt::AttrRef> attrs = gt::ResolveAttributes(graph, {"gender"});
  for (auto _ : state) {
    gt::AggregateGraph agg =
        gt::Aggregate(graph, view, attrs, gt::AggregationSemantics::kAll);
    benchmark::DoNotOptimize(agg.NodeCount());
  }
}
BENCHMARK(BM_AggregateStaticFastPath);

void BM_AggregateTimeVarying(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  gt::GraphView view = gt::UnionOp(graph, gt::IntervalSet::Range(n, 0, 9),
                                   gt::IntervalSet::Range(n, 10, 20));
  std::vector<gt::AttrRef> attrs = gt::ResolveAttributes(graph, {"publications"});
  for (auto _ : state) {
    gt::AggregateGraph agg =
        gt::Aggregate(graph, view, attrs, gt::AggregationSemantics::kDistinct);
    benchmark::DoNotOptimize(agg.NodeCount());
  }
}
BENCHMARK(BM_AggregateTimeVarying);

// --- Materialized combine vs. from-scratch union aggregate -----------------------------

void BM_UnionAllFromScratch(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  gt::IntervalSet interval = gt::IntervalSet::Range(n, 0, 20);
  std::vector<gt::AttrRef> attrs = gt::ResolveAttributes(graph, {"gender"});
  for (auto _ : state) {
    gt::GraphView view = gt::UnionOp(graph, interval, interval);
    gt::AggregateGraph agg =
        gt::Aggregate(graph, view, attrs, gt::AggregationSemantics::kAll);
    benchmark::DoNotOptimize(agg.NodeCount());
  }
}
BENCHMARK(BM_UnionAllFromScratch);

void BM_UnionAllFromCache(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  gt::IntervalSet interval = gt::IntervalSet::Range(n, 0, 20);
  static gt::MaterializationStore& store = *new gt::MaterializationStore(
      &graph, gt::ResolveAttributes(graph, {"gender"}));
  store.MaterializeAllTimePoints();
  for (auto _ : state) {
    gt::AggregateGraph agg = store.UnionAllAggregate(interval);
    benchmark::DoNotOptimize(agg.NodeCount());
  }
}
BENCHMARK(BM_UnionAllFromCache);

// --- Answer emission, ranking and writing ---------------------------------------

// The layer between the scans and the socket, without HTTP: Algorithm 2 on a
// three-attribute union of the MovieLens stand-in (thousands of edge groups)
// emits its answer, the answer is ranked, and the server's response body is
// written from the ranking (arg 0); arg 1 does the same for the evolution
// answer of those attributes between the two halves of the domain.
void BM_AnswerEmitRankWrite(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::MovieLensGraph();
  const std::size_t n = graph.num_times();
  const bool evolution = state.range(0) == 1;
  gt::engine::QuerySpec spec;
  spec.kind =
      evolution ? gt::engine::QueryKind::kEvolution : gt::engine::QueryKind::kAggregate;
  spec.op = gt::engine::TemporalOperatorKind::kUnion;
  spec.t1 = gt::IntervalSet::Range(n, 0, static_cast<gt::TimeId>(n / 2 - 1));
  spec.t2 = gt::IntervalSet::Range(n, static_cast<gt::TimeId>(n / 2),
                                   static_cast<gt::TimeId>(n - 1));
  spec.attrs = gt::ResolveAttributes(graph, {"gender", "age", "occupation"});
  gt::engine::QueryPlan plan;
  plan.fingerprint = spec.Fingerprint();
  gt::engine::QuerySpec operands = spec;
  operands.kind = gt::engine::QueryKind::kAggregate;
  const gt::GraphView view = gt::engine::BuildOperatorView(graph, operands);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const gt::engine::QueryResult result =
        evolution ? gt::engine::QueryResult(
                        gt::AggregateEvolution(graph, spec.t1, spec.t2, spec.attrs))
                  : gt::engine::QueryResult(gt::Aggregate(graph, view, spec.attrs));
    const std::string body =
        gt::engine::wire::QueryResultToJson(graph, spec, plan, result, 0);
    bytes = body.size();
    benchmark::DoNotOptimize(body.data());
  }
  state.counters["body_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_AnswerEmitRankWrite)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- Exploration pruning ablation ---------------------------------------------------------

void BM_ExplorePruned(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  gt::ExplorationSpec spec;
  spec.event = gt::EventType::kStability;
  spec.semantics = gt::ExtensionSemantics::kIntersection;
  spec.reference = gt::ReferenceEnd::kOld;
  spec.selector = gt::bench::FemaleFemaleEdges(graph);
  spec.k = 10;
  for (auto _ : state) {
    gt::ExplorationResult result = gt::Explore(graph, spec);
    benchmark::DoNotOptimize(result.pairs.size());
  }
}
BENCHMARK(BM_ExplorePruned);

void BM_ExploreNaive(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  gt::ExplorationSpec spec;
  spec.event = gt::EventType::kStability;
  spec.semantics = gt::ExtensionSemantics::kIntersection;
  spec.reference = gt::ReferenceEnd::kOld;
  spec.selector = gt::bench::FemaleFemaleEdges(graph);
  spec.k = 10;
  for (auto _ : state) {
    gt::ExplorationResult result = gt::ExploreNaive(graph, spec);
    benchmark::DoNotOptimize(result.pairs.size());
  }
}
BENCHMARK(BM_ExploreNaive);

// A {publications} stability U-Explore: the selector's codes change per time
// point, so every candidate walks the event entities' appearances.
void RunExploreTimeVarying(benchmark::State& state, gt::EntitySelector::Kind kind) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  gt::ExplorationSpec spec;
  spec.event = gt::EventType::kStability;
  spec.semantics = gt::ExtensionSemantics::kUnion;
  spec.reference = gt::ReferenceEnd::kNew;
  spec.selector.kind = kind;
  spec.selector.attrs = gt::ResolveAttributes(graph, {"publications"});
  spec.k = 400;
  std::size_t evaluations = 0;
  for (auto _ : state) {
    gt::ExplorationResult result = gt::Explore(graph, spec);
    evaluations = result.evaluations;
    benchmark::DoNotOptimize(result.pairs.size());
  }
  state.counters["evaluations"] = static_cast<double>(evaluations);
}

void BM_ExploreTimeVaryingNodes(benchmark::State& state) {
  RunExploreTimeVarying(state, gt::EntitySelector::Kind::kNodes);
}
BENCHMARK(BM_ExploreTimeVaryingNodes);

void BM_ExploreTimeVaryingEdges(benchmark::State& state) {
  RunExploreTimeVarying(state, gt::EntitySelector::Kind::kEdges);
}
BENCHMARK(BM_ExploreTimeVaryingEdges);


// --- Cube query vs direct aggregation -----------------------------------------------

void BM_CubeSubsetQuery(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  static gt::AggregateCube& cube = *new gt::AggregateCube(
      &graph, gt::ResolveAttributes(graph, {"gender", "publications"}));
  cube.Materialize();
  gt::IntervalSet interval = gt::IntervalSet::Range(n, 0, 20);
  const std::size_t keep_gender[] = {0};
  for (auto _ : state) {
    gt::AggregateGraph agg = cube.Query(interval, keep_gender);
    benchmark::DoNotOptimize(agg.NodeCount());
  }
}
BENCHMARK(BM_CubeSubsetQuery);

void BM_CubeEquivalentDirect(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  gt::IntervalSet interval = gt::IntervalSet::Range(n, 0, 20);
  std::vector<gt::AttrRef> attrs = gt::ResolveAttributes(graph, {"gender"});
  for (auto _ : state) {
    gt::GraphView view = gt::UnionOp(graph, interval, interval);
    gt::AggregateGraph agg =
        gt::Aggregate(graph, view, attrs, gt::AggregationSemantics::kAll);
    benchmark::DoNotOptimize(agg.NodeCount());
  }
}
BENCHMARK(BM_CubeEquivalentDirect);

// --- Operator scan parallelism ----------------------------------------------------------

void BM_UnionOpParallel(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  const std::size_t n = graph.num_times();
  gt::IntervalSet a = gt::IntervalSet::Range(n, 0, 9);
  gt::IntervalSet b = gt::IntervalSet::Range(n, 10, 20);
  gt::SetParallelism(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    gt::GraphView view = gt::UnionOp(graph, a, b);
    benchmark::DoNotOptimize(view.NodeCount());
  }
  gt::SetParallelism(1);
}
BENCHMARK(BM_UnionOpParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- Append-only ingest: one time point plus its batch ----------------------------------
//
// Appends one point to the DBLP stand-in grown to state.range(0) points, then
// writes a streaming batch at it: 300 edges between existing nodes and a
// time-varying value for every endpoint, the shape of the serving
// benchmark's ingest batches. Growing the graph uses the same batches. The
// time-major attribute columns append in O(entities); what still grows with
// the history is the presence bookkeeping per new edge.

void AppendBatch(gt::TemporalGraph* graph, gt::datagen::Pcg32* rng,
                 std::string_view label) {
  constexpr std::size_t kBatchEdges = 300;
  const gt::TimeId t = graph->AppendTimePoint(label);
  const std::vector<std::string>& values =
      graph->time_varying_attribute(0).dictionary().values();
  const auto num_values =
      static_cast<std::uint32_t>(std::min<std::size_t>(values.size(), 8));
  const auto num_nodes = static_cast<std::uint32_t>(graph->num_nodes());
  for (std::size_t i = 0; i < kBatchEdges; ++i) {
    const gt::NodeId src = rng->NextBelow(num_nodes);
    const gt::NodeId dst = rng->NextBelow(num_nodes);
    if (src == dst) continue;
    graph->SetEdgePresent(graph->GetOrAddEdge(src, dst), t);
    graph->SetTimeVaryingValue(0, src, t, values[rng->NextBelow(num_values)]);
    graph->SetTimeVaryingValue(0, dst, t, values[rng->NextBelow(num_values)]);
  }
}

void BM_AppendTimePoint(benchmark::State& state) {
  gt::TemporalGraph graph = gt::datagen::GenerateDblp();
  gt::datagen::Pcg32 rng(11);
  std::size_t next_label = 0;
  auto append = [&] { AppendBatch(&graph, &rng, "p" + std::to_string(next_label++)); };
  while (graph.num_times() < static_cast<std::size_t>(state.range(0))) append();
  for (auto _ : state) append();
  state.counters["points_after"] = static_cast<double>(graph.num_times());
}
// A fixed, small iteration count: every iteration adds a point, so the
// measured history stays within a few points of the argument.
BENCHMARK(BM_AppendTimePoint)->Arg(21)->Arg(100)->Arg(400)->Iterations(5)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
