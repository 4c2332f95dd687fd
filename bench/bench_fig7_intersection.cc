/// Figure 7: intersection + DIST aggregation while extending the interval
/// [t₀, y] with intersection semantics (entities present at *every* point,
/// i.e. the time projection of Def 2.2). Shape claims:
///   * the interval is extended only while the intersection stays non-empty —
///     DBLP up to [2000, 2017], MovieLens up to [May, Jul];
///   * the operator dominates the aggregation for static attributes (the
///     result shrinks as the interval grows), while time-varying aggregation
///     still dominates the total.

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
  std::printf("--- %s: intersection over [%s, y] + DIST aggregation (ms) ---\n",
              name.c_str(), graph.time_label(0).c_str());
  TablePrinter table({"y", "op", "S-DIST", "V-DIST", "nodes", "edges"});
  table.PrintHeader();

  std::vector<gt::AttrRef> s_attr = gt::ResolveAttributes(graph, {static_attr});
  std::vector<gt::AttrRef> v_attr = gt::ResolveAttributes(graph, {varying_attr});
  const std::size_t n = graph.num_times();

  for (gt::TimeId y = 1; y < n; ++y) {
    gt::IntervalSet interval = gt::IntervalSet::Range(n, 0, y);
    gt::GraphView view = gt::Project(graph, interval);
    if (view.EdgeCount() == 0) {
      std::printf("  (stopped: no common edge over [%s, %s] — end of Fig 7's x-axis)\n",
                  graph.time_label(0).c_str(), graph.time_label(y).c_str());
      break;
    }
    double op_ms = TimeMs([&] {
      gt::GraphView timed = gt::Project(graph, interval);
      DoNotOptimize(timed.NodeCount());
    });
    auto agg_ms = [&](const std::vector<gt::AttrRef>& attrs) {
      return TimeMs([&] {
        gt::AggregateGraph agg =
            gt::Aggregate(graph, view, attrs, gt::AggregationSemantics::kDistinct);
        DoNotOptimize(agg.NodeCount());
      });
    };
    table.PrintRow({graph.time_label(y), Ms(op_ms), Ms(agg_ms(s_attr)),
                    Ms(agg_ms(v_attr)), std::to_string(view.NodeCount()),
                    std::to_string(view.EdgeCount())});
  }
  std::printf("\n");
}

/// Kernel-vs-row-scan ablation: intersection of the first half of the
/// timeline with the second, single-threaded, once through the column-major
/// kernel and once through the row-scan reference. The JSON `kernel` field is
/// the speedup of the kernel over the row scan (docs/KERNELS.md).
void RunKernelAblation(const gt::TemporalGraph& graph, const std::string& name) {
  const std::size_t n = graph.num_times();
  const gt::TimeId mid = static_cast<gt::TimeId>(n / 2);
  gt::IntervalSet first = gt::IntervalSet::Range(n, 0, mid);
  gt::IntervalSet second = gt::IntervalSet::Range(n, mid, static_cast<gt::TimeId>(n - 1));
  gt::SetParallelism(1);
  {  // warm the lazy sparse tables outside the timed region
    gt::GraphView warm = gt::IntersectionOp(graph, first, second);
    DoNotOptimize(warm.NodeCount());
  }
  gt::obs::Registry::Instance().ResetAll();
  double kernel_ms = 0.0;
  {
    // Capture span/operators/* histograms for per-phase percentile fields.
    gt::obs::ScopedLatencyCapture capture;
    kernel_ms = TimeMs(
        [&] {
          gt::GraphView view = gt::IntersectionOp(graph, first, second);
          DoNotOptimize(view.NodeCount());
        },
        /*reps=*/5);
  }
  double rowscan_ms = TimeMs(
      [&] {
        gt::GraphView view = gt::testing::IntersectionOpRowScan(graph, first, second);
        DoNotOptimize(view.NodeCount());
      },
      /*reps=*/5);
  double speedup = kernel_ms > 0 ? rowscan_ms / kernel_ms : 0.0;
  std::printf("--- %s: intersection kernel ablation (1 thread) ---\n", name.c_str());
  std::printf("  kernel %.3f ms, row scan %.3f ms, speedup %.1fx\n", kernel_ms,
              rowscan_ms, speedup);
  gt::bench::JsonLine json("fig7_kernel");
  json.Add("dataset", name);
  json.Add("kernel_ms", kernel_ms);
  json.Add("rowscan_ms", rowscan_ms);
  json.Add("kernel", speedup);
  gt::bench::AddSpanPercentiles(json, "intersection", "operators/intersection");
  gt::bench::AddSpanPercentiles(json, "extract", "operators/extract");
  // SIMD-vs-scalar ratio of the same kernel-path intersection
  // (docs/KERNELS.md §8).
  gt::bench::AddBackendSpeedup(json, [&] {
    gt::GraphView view = gt::IntersectionOp(graph, first, second);
    DoNotOptimize(view.NodeCount());
  });
  json.Print();
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  gt::bench::ApplyBackendFlag(argc, argv);  // --backend <scalar|avx2|avx512|auto>
  gt::bench::TraceGuard trace_guard;  // GT_TRACE=<path> records the whole run
  PrintTitle("Intersection + aggregation while extending the interval",
             "paper Figure 7");
  RunDataset(gt::bench::DblpGraph(), "DBLP (Fig 7a-c)", "gender", "publications");
  RunDataset(gt::bench::MovieLensGraph(), "MovieLens (Fig 7d)", "gender", "rating");
  RunKernelAblation(gt::bench::DblpGraph(), "DBLP");
  RunKernelAblation(gt::bench::MovieLensGraph(), "MovieLens");
  std::printf("Expected shape: DBLP sustains a common edge up to [2000,2017], MovieLens\n"
              "up to [May,Jul]; the shrinking result makes aggregation cheap relative to\n"
              "the operator for static attributes.\n");
  return 0;
}
