/// Figure 6: union + aggregation (DIST and ALL) while extending the interval
/// [t₀, y]. Shape claims to reproduce:
///   * static-attribute aggregation is far cheaper than time-varying over
///     long intervals (gender vs. publications/rating);
///   * for static attributes DIST ≲ ALL are close; for time-varying
///     attributes both are expensive and dominate the operator cost;
///   * the union operator's own cost is similar across attribute types.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/operators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "reference_impl.h"

namespace gt = graphtempo;
using gt::bench::DoNotOptimize;
using gt::bench::Ms;
using gt::bench::PrintTitle;
using gt::bench::TablePrinter;
using gt::bench::TimeMs;

namespace {

void RunDataset(const gt::TemporalGraph& graph, const std::string& name,
                const std::string& static_attr, const std::string& varying_attr) {
  std::printf("--- %s: union over [%s, y] + aggregation (ms) ---\n", name.c_str(),
              graph.time_label(0).c_str());
  TablePrinter table({"y", "op", "S-DIST", "S-ALL", "V-DIST", "V-ALL", "nodes",
                      "edges"});
  table.PrintHeader();

  std::vector<gt::AttrRef> s_attr = gt::ResolveAttributes(graph, {static_attr});
  std::vector<gt::AttrRef> v_attr = gt::ResolveAttributes(graph, {varying_attr});
  const std::size_t n = graph.num_times();

  for (gt::TimeId y = 1; y < n; ++y) {
    gt::IntervalSet prefix = gt::IntervalSet::Range(n, 0, static_cast<gt::TimeId>(y - 1));
    gt::IntervalSet next = gt::IntervalSet::Point(n, y);
    double op_ms = TimeMs([&] {
      gt::GraphView view = gt::UnionOp(graph, prefix, next);
      DoNotOptimize(view.NodeCount());
    });
    gt::GraphView view = gt::UnionOp(graph, prefix, next);
    auto agg_ms = [&](const std::vector<gt::AttrRef>& attrs,
                      gt::AggregationSemantics semantics) {
      return TimeMs([&] {
        gt::AggregateGraph agg = gt::Aggregate(graph, view, attrs, semantics);
        DoNotOptimize(agg.NodeCount());
      });
    };
    table.PrintRow({graph.time_label(y), Ms(op_ms),
                    Ms(agg_ms(s_attr, gt::AggregationSemantics::kDistinct)),
                    Ms(agg_ms(s_attr, gt::AggregationSemantics::kAll)),
                    Ms(agg_ms(v_attr, gt::AggregationSemantics::kDistinct)),
                    Ms(agg_ms(v_attr, gt::AggregationSemantics::kAll)),
                    std::to_string(view.NodeCount()), std::to_string(view.EdgeCount())});
  }
  std::printf("\n");
}

/// Kernel-vs-row-scan ablation: the figure's heaviest union (full prefix +
/// last point), single-threaded, once through the column-major kernel path
/// and once through the row-scan reference. The JSON `kernel` field is the
/// speedup of the kernel over the row scan (docs/KERNELS.md).
void RunKernelAblation(const gt::TemporalGraph& graph, const std::string& name) {
  const std::size_t n = graph.num_times();
  gt::IntervalSet prefix = gt::IntervalSet::Range(n, 0, static_cast<gt::TimeId>(n - 2));
  gt::IntervalSet next = gt::IntervalSet::Point(n, static_cast<gt::TimeId>(n - 1));
  gt::SetParallelism(1);
  {  // warm the lazy sparse tables outside the timed region
    gt::GraphView warm = gt::UnionOp(graph, prefix, next);
    DoNotOptimize(warm.NodeCount());
  }
  gt::obs::Registry::Instance().ResetAll();
  double kernel_ms = 0.0;
  {
    // Capture span/operators/* histograms for per-phase percentile fields.
    gt::obs::ScopedLatencyCapture capture;
    kernel_ms = TimeMs(
        [&] {
          gt::GraphView view = gt::UnionOp(graph, prefix, next);
          DoNotOptimize(view.NodeCount());
        },
        /*reps=*/5);
  }
  double rowscan_ms = TimeMs(
      [&] {
        gt::GraphView view = gt::testing::UnionOpRowScan(graph, prefix, next);
        DoNotOptimize(view.NodeCount());
      },
      /*reps=*/5);
  double speedup = kernel_ms > 0 ? rowscan_ms / kernel_ms : 0.0;
  std::printf("--- %s: union kernel ablation (1 thread) ---\n", name.c_str());
  std::printf("  kernel %.3f ms, row scan %.3f ms, speedup %.1fx\n", kernel_ms,
              rowscan_ms, speedup);
  gt::bench::JsonLine json("fig6_kernel");
  json.Add("dataset", name);
  json.Add("kernel_ms", kernel_ms);
  json.Add("rowscan_ms", rowscan_ms);
  json.Add("kernel", speedup);
  gt::bench::AddSpanPercentiles(json, "union", "operators/union");
  gt::bench::AddSpanPercentiles(json, "extract", "operators/extract");
  // SIMD-vs-scalar ratio of the same kernel-path union (docs/KERNELS.md §8).
  gt::bench::AddBackendSpeedup(json, [&] {
    gt::GraphView view = gt::UnionOp(graph, prefix, next);
    DoNotOptimize(view.NodeCount());
  });
  json.Print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  gt::bench::ApplyBackendFlag(argc, argv);  // --backend <scalar|avx2|avx512|auto>
  gt::bench::TraceGuard trace_guard;  // GT_TRACE=<path> records the whole run
  PrintTitle("Union + aggregation while extending the interval", "paper Figure 6");
  RunDataset(gt::bench::DblpGraph(), "DBLP (Fig 6a-c)", "gender", "publications");
  RunDataset(gt::bench::MovieLensGraph(), "MovieLens (Fig 6d)", "gender", "rating");
  RunKernelAblation(gt::bench::DblpGraph(), "DBLP");
  RunKernelAblation(gt::bench::MovieLensGraph(), "MovieLens");
  std::printf("Expected shape: time-varying (V) aggregation over the longest interval is\n"
              "several times the static (S) cost; the union operator itself is similar\n"
              "for both and grows with the interval.\n");
  return 0;
}
