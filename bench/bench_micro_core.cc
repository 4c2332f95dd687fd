/// google-benchmark micro suite: core primitives plus the ablations called
/// out in DESIGN.md —
///   * word-parallel presence predicates vs. the per-column naive scan;
///   * the static-attribute aggregation fast path vs. the general path;
///   * the monotonicity-pruned explorer vs. exhaustive enumeration.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "engine/cube.h"
#include "core/naive_exploration.h"
#include "core/materialization.h"
#include "core/operators.h"
#include "storage/bitset.h"
#include "util/parallel.h"

namespace gt = graphtempo;

namespace {

// --- Presence predicate ablation -------------------------------------------------

void BM_RowAnyMaskedWordParallel(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  gt::IntervalSet interval = gt::IntervalSet::Range(graph.num_times(), 5, 15);
  for (auto _ : state) {
    std::size_t hits = 0;
    for (gt::NodeId n = 0; n < graph.num_nodes(); ++n) {
      hits += graph.node_presence().RowAnyMasked(n, interval.bits());
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RowAnyMaskedWordParallel);

void BM_RowAnyMaskedNaive(benchmark::State& state) {
  const gt::TemporalGraph& graph = gt::bench::DblpGraph();
  gt::IntervalSet interval = gt::IntervalSet::Range(graph.num_times(), 5, 15);
  for (auto _ : state) {
    std::size_t hits = 0;
    for (gt::NodeId n = 0; n < graph.num_nodes(); ++n) {
      hits += graph.node_presence().RowAnyMaskedNaive(n, interval.bits());
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RowAnyMaskedNaive);

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
    gt::GraphView view = gt::UnionOpRowScan(graph, a, b);
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

}  // namespace

BENCHMARK_MAIN();
