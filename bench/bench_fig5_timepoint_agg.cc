/// Figure 5: DIST aggregation time per attribute (and attribute combination)
/// on single time points. The paper's claims to reproduce in shape:
///   * per-point cost tracks the number of distinct values in the attribute
///     (combination) domain — gender is cheapest, full combinations dearest;
///   * MovieLens peaks in August (its largest month).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/operators.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference_impl.h"

namespace gt = graphtempo;
using gt::bench::Ms;
using gt::bench::PrintTitle;
using gt::bench::TablePrinter;
using gt::bench::TimeMs;

namespace {

using gt::bench::DoNotOptimize;

struct Combo {
  std::string label;
  std::vector<std::string> attrs;
};

void RunDataset(const gt::TemporalGraph& graph, const std::string& name,
                const std::vector<Combo>& combos) {
  std::printf("--- %s: DIST aggregation per time point (ms) ---\n", name.c_str());
  std::vector<std::string> headers = {"time"};
  for (const Combo& combo : combos) headers.push_back(combo.label);
  TablePrinter table(headers);
  table.PrintHeader();

  std::vector<std::vector<gt::AttrRef>> resolved;
  for (const Combo& combo : combos) {
    resolved.push_back(gt::ResolveAttributes(graph, combo.attrs));
  }

  const std::size_t n = graph.num_times();
  for (gt::TimeId t = 0; t < n; ++t) {
    gt::GraphView snapshot = gt::Project(graph, gt::IntervalSet::Point(n, t));
    std::vector<std::string> row = {graph.time_label(t)};
    for (const auto& attrs : resolved) {
      double ms = TimeMs([&] {
        gt::AggregateGraph agg =
            gt::Aggregate(graph, snapshot, attrs, gt::AggregationSemantics::kDistinct);
        DoNotOptimize(agg.NodeCount());
      });
      row.push_back(Ms(ms));
    }
    table.PrintRow(row);
  }
  std::printf("\n");
}

/// Thread-count sweep: the heaviest configuration of the figure (full
/// attribute combination, DIST) on the union of all time points, at
/// 1/2/4/8 worker threads. Emits speedup vs the serial baseline as JSON.
void RunThreadScaling(const gt::TemporalGraph& graph, const std::string& name,
                      const std::vector<std::string>& attr_names) {
  std::printf("--- %s: DIST aggregation over the full union, thread sweep ---\n",
              name.c_str());
  std::vector<gt::AttrRef> attrs = gt::ResolveAttributes(graph, attr_names);
  const std::size_t n = graph.num_times();
  gt::IntervalSet all = gt::IntervalSet::All(n);
  gt::GraphView view = gt::UnionOp(graph, all, all);

  gt::bench::JsonLine json("fig5_thread_sweep");
  json.Add("dataset", name);
  json.Add("backend", std::string(gt::accel::ActiveBackendName()));
  {
    // Per-phase latency percentiles across every timed call of the sweep,
    // via the span/<name> registry histograms (microsecond resolution).
    gt::obs::Registry::Instance().ResetAll();
    gt::obs::ScopedLatencyCapture capture;
    gt::bench::RunThreadSweep(gt::bench::ThreadSweep(), json, [&] {
      gt::AggregateGraph agg =
          gt::Aggregate(graph, view, attrs, gt::AggregationSemantics::kDistinct);
      DoNotOptimize(agg.NodeCount());
    });
  }
  gt::bench::AddSpanPercentiles(json, "agg", "agg/aggregate");
  gt::bench::AddSpanPercentiles(json, "nodes_scan", "agg/nodes_scan");
  gt::bench::AddSpanPercentiles(json, "edges_scan", "agg/edges_scan");
  gt::bench::AddSpanPercentiles(json, "nodes_merge", "agg/nodes_merge");
  gt::bench::AddSpanPercentiles(json, "edges_merge", "agg/edges_merge");
  json.Print();
  std::printf("\n");
}

/// Kernel-vs-row-scan ablation for the figure's operator side plus a
/// dense-vs-hash grouping ablation for its aggregation side, single-threaded.
/// `kernel` is the speedup of the column-major Project kernel over the
/// row-scan reference summed across all per-point snapshots; `dense_speedup`
/// is the speedup of kAuto grouping (flat tables where the packed domain
/// fits) over forced hash tables on the group codes, on the full-union view
/// (docs/KERNELS.md).
void RunKernelAblation(const gt::TemporalGraph& graph, const std::string& name,
                       const std::vector<std::string>& attr_names) {
  const std::size_t n = graph.num_times();
  gt::SetParallelism(1);
  {  // warm the lazy sparse tables outside the timed region
    gt::GraphView warm = gt::Project(graph, gt::IntervalSet::All(n));
    DoNotOptimize(warm.NodeCount());
  }
  double kernel_ms = TimeMs(
      [&] {
        std::size_t total = 0;
        for (gt::TimeId t = 0; t < n; ++t) {
          gt::GraphView snap = gt::Project(graph, gt::IntervalSet::Point(n, t));
          total += snap.NodeCount() + snap.EdgeCount();
        }
        DoNotOptimize(total);
      },
      /*reps=*/5);
  double rowscan_ms = TimeMs(
      [&] {
        std::size_t total = 0;
        for (gt::TimeId t = 0; t < n; ++t) {
          gt::GraphView snap = gt::testing::ProjectRowScan(graph, gt::IntervalSet::Point(n, t));
          total += snap.NodeCount() + snap.EdgeCount();
        }
        DoNotOptimize(total);
      },
      /*reps=*/5);
  double speedup = kernel_ms > 0 ? rowscan_ms / kernel_ms : 0.0;

  std::vector<gt::AttrRef> attrs = gt::ResolveAttributes(graph, attr_names);
  gt::IntervalSet all = gt::IntervalSet::All(n);
  gt::GraphView view = gt::UnionOp(graph, all, all);
  auto agg_ms = [&](gt::GroupingStrategy grouping) {
    gt::AggregationOptions options;
    options.semantics = gt::AggregationSemantics::kDistinct;
    options.grouping = grouping;
    return TimeMs(
        [&] {
          gt::AggregateGraph agg = gt::Aggregate(graph, view, attrs, options);
          DoNotOptimize(agg.NodeCount());
        },
        /*reps=*/5);
  };
  double dense_ms = agg_ms(gt::GroupingStrategy::kAuto);
  double hash_ms = agg_ms(gt::GroupingStrategy::kHash);
  double dense_speedup = dense_ms > 0 ? hash_ms / dense_ms : 0.0;

  std::printf("--- %s: Project kernel + grouping ablation (1 thread) ---\n",
              name.c_str());
  std::printf("  project: kernel %.3f ms, row scan %.3f ms, speedup %.1fx\n",
              kernel_ms, rowscan_ms, speedup);
  std::printf("  grouping: auto %.3f ms, hash %.3f ms, speedup %.1fx\n", dense_ms,
              hash_ms, dense_speedup);
  gt::bench::JsonLine json("fig5_kernel");
  json.Add("dataset", name);
  json.Add("kernel_ms", kernel_ms);
  json.Add("rowscan_ms", rowscan_ms);
  json.Add("kernel", speedup);
  json.Add("dense_ms", dense_ms);
  json.Add("hash_ms", hash_ms);
  json.Add("dense_speedup", dense_speedup);
  // SIMD-vs-scalar ratio of the same kernel-path sweep (docs/KERNELS.md §8).
  gt::bench::AddBackendSpeedup(json, [&] {
    std::size_t total = 0;
    for (gt::TimeId t = 0; t < n; ++t) {
      gt::GraphView snap = gt::Project(graph, gt::IntervalSet::Point(n, t));
      total += snap.NodeCount() + snap.EdgeCount();
    }
    DoNotOptimize(total);
  });
  json.Print();
  std::printf("\n");
}

/// The figure's per-point DIST queries routed through the query engine.
/// Without a materialization store every query takes the direct-kernel route;
/// after EnableMaterialization the planner flips single-point queries to the
/// materialized route (per-point DIST ≡ ALL), and a second sweep over the
/// same specs is answered from the fingerprint cache. Emits both routes'
/// total times plus the cache counters as JSON.
void RunEngineRouting(const gt::TemporalGraph& graph, const std::string& name,
                      const std::vector<std::string>& attr_names) {
  std::vector<gt::AttrRef> attrs = gt::ResolveAttributes(graph, attr_names);
  const std::size_t n = graph.num_times();
  auto spec_at = [&](gt::TimeId t) {
    gt::engine::QuerySpec spec;
    spec.op = gt::engine::TemporalOperatorKind::kProject;
    spec.t1 = gt::IntervalSet::Point(n, t);
    spec.attrs = attrs;
    spec.semantics = gt::AggregationSemantics::kDistinct;
    return spec;
  };
  auto sweep = [&](gt::engine::QueryEngine& engine) {
    return TimeMs([&] {
      for (gt::TimeId t = 0; t < n; ++t) {
        gt::AggregateGraph agg = engine.Execute(spec_at(t));
        DoNotOptimize(agg.NodeCount());
      }
    });
  };

  gt::engine::QueryEngine engine(&graph);
  const std::string direct_route =
      gt::engine::PlanRouteName(engine.Plan(spec_at(0)).route);
  engine.ClearCache();
  double direct_ms = sweep(engine);
  engine.ClearCache();

  engine.EnableMaterialization(attrs);
  const std::string materialized_route =
      gt::engine::PlanRouteName(engine.Plan(spec_at(0)).route);
  double materialized_ms = sweep(engine);
  double cached_ms = sweep(engine);  // identical specs: pure fingerprint hits

  std::printf("--- %s: engine routing (direct %s, derived %s, cached %s) ---\n",
              name.c_str(), Ms(direct_ms).c_str(), Ms(materialized_ms).c_str(),
              Ms(cached_ms).c_str());
  gt::bench::JsonLine json("fig5_engine");
  json.Add("dataset", name);
  json.Add("backend", std::string(gt::accel::ActiveBackendName()));
  json.Add("route_unmaterialized", direct_route);
  json.Add("route_materialized", materialized_route);
  json.Add("direct_ms", direct_ms);
  json.Add("materialized_ms", materialized_ms);
  json.Add("cached_ms", cached_ms);
  json.Add("cache_hits", static_cast<std::size_t>(engine.cache_stats().hits));
  json.Add("cache_misses", static_cast<std::size_t>(engine.cache_stats().misses));
  json.Print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  gt::bench::ApplyBackendFlag(argc, argv);  // --backend <scalar|avx2|avx512|auto>
  gt::bench::TraceGuard trace_guard;  // GT_TRACE=<path> records the whole run
  PrintTitle("Per-time-point aggregation by attribute type", "paper Figure 5");

  RunDataset(gt::bench::DblpGraph(), "DBLP (Fig 5a)",
             {{"G", {"gender"}},
              {"P", {"publications"}},
              {"G+P", {"gender", "publications"}}});

  RunDataset(gt::bench::MovieLensGraph(), "MovieLens (Fig 5b)",
             {{"G", {"gender"}},
              {"A", {"age"}},
              {"O", {"occupation"}},
              {"R", {"rating"}},
              {"G+R", {"gender", "rating"}},
              {"G+O+R", {"gender", "occupation", "rating"}},
              {"all4", {"gender", "age", "occupation", "rating"}}});

  RunThreadScaling(gt::bench::DblpGraph(), "DBLP", {"gender", "publications"});
  RunThreadScaling(gt::bench::MovieLensGraph(), "MovieLens",
                   {"gender", "age", "occupation", "rating"});

  RunKernelAblation(gt::bench::DblpGraph(), "DBLP", {"gender", "publications"});
  RunKernelAblation(gt::bench::MovieLensGraph(), "MovieLens",
                    {"gender", "age", "occupation", "rating"});

  RunEngineRouting(gt::bench::DblpGraph(), "DBLP", {"gender", "publications"});
  RunEngineRouting(gt::bench::MovieLensGraph(), "MovieLens",
                   {"gender", "age", "occupation", "rating"});

  std::printf("Expected shape: cost grows with the attribute-combination domain size;\n"
              "gender is cheapest, the full combination dearest; MovieLens peaks in Aug.\n");
  return 0;
}
