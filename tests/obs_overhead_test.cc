#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/aggregation.h"
#include "core/interval.h"
#include "core/operators.h"
#include "obs/trace.h"
#include "test_graphs.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

/// \file
/// Pins the observability overhead budget (docs/OBSERVABILITY.md): with no
/// session active a GT_SPAN is one relaxed atomic load and a branch, and the
/// instrumentation of the Figure-5 hot loop must cost under 2% of its
/// runtime. The test measures the per-span inactive cost directly, counts
/// how many spans one hot-loop iteration emits (with a session), and checks
/// cost-per-span x spans-per-iteration against 2% of the measured iteration,
/// each the minimum over alternating rounds.

namespace graphtempo {
namespace {

TEST(ObsOverheadTest, InactiveSpansStayUnderTheTwoPercentBudget) {
  SetParallelism(1);
  TemporalGraph graph = testing::BuildRandomGraph(55, 2000, 6, 0.5, 3, 4, 0.02);
  const std::size_t n = graph.num_times();
  std::vector<AttrRef> attrs = ResolveAttributes(graph, {"color", "level"});

  // The Figure-5 shape: project one snapshot, aggregate it with DIST.
  auto iteration = [&] {
    GraphView snapshot = Project(graph, IntervalSet::Point(n, 2));
    AggregateGraph agg =
        Aggregate(graph, snapshot, attrs, AggregationSemantics::kDistinct);
    volatile std::size_t sink = agg.NodeCount();
    (void)sink;
  };
  iteration();  // warm lazy presence tables and allocators

  // Count the spans one iteration emits.
  std::size_t spans_per_iteration = 0;
  {
    obs::TraceSession session;
    iteration();
    session.Stop();
    spans_per_iteration = session.event_count();
  }
  ASSERT_GT(spans_per_iteration, 0u);

  // Per-span cost with no session active (the production default) against
  // one iteration. The two are timed in alternating short rounds and each
  // keeps its minimum: a burst of host load that slows some rounds cannot
  // decide the comparison, while a real regression slows every round.
  ASSERT_FALSE(obs::TracingActive());
  constexpr int kRounds = 25;
  constexpr std::size_t kProbeSpans = 200'000;
  double nanos_per_span = std::numeric_limits<double>::infinity();
  double iteration_ms = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kRounds; ++round) {
    Stopwatch probe_watch;
    probe_watch.Start();
    for (std::size_t i = 0; i < kProbeSpans; ++i) {
      GT_SPAN("test/overhead_probe");
    }
    nanos_per_span = std::min(nanos_per_span,
                              static_cast<double>(probe_watch.ElapsedMicros()) * 1000.0 /
                                  static_cast<double>(kProbeSpans));
    Stopwatch iteration_watch;
    iteration_watch.Start();
    iteration();
    iteration_ms = std::min(iteration_ms, iteration_watch.ElapsedMillis());
  }
  const double span_cost_ms =
      nanos_per_span * static_cast<double>(spans_per_iteration) / 1e6;

  // An inactive span is an atomic load + branch: well under 200 ns even on a
  // loaded CI machine.
  EXPECT_LT(nanos_per_span, 200.0);
  // The budget: all spans of one hot-loop iteration must cost < 2% of it.
  EXPECT_LT(span_cost_ms, 0.02 * iteration_ms)
      << spans_per_iteration << " spans/iter at " << nanos_per_span
      << " ns/span vs iteration " << iteration_ms << " ms";
}

}  // namespace
}  // namespace graphtempo
