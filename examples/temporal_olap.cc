/// Temporal OLAP walkthrough: the Section 4.3 materialization machinery as a
/// downstream user would drive it —
///
///   1. build the cube over (gender, publications) on the DBLP-like graph;
///   2. answer roll-up / slice queries for arbitrary intervals without ever
///      touching the graph again, and show the derivation counters;
///   3. zoom out: coarsen the 21 yearly snapshots into 5-year periods and
///      re-run aggregation and evolution at the coarse granularity.

#include <cstdio>

#include "core/coarsen.h"
#include "engine/cube.h"
#include "core/evolution.h"
#include "core/operators.h"
#include "datagen/dblp_gen.h"
#include "util/stopwatch.h"

namespace gt = graphtempo;

int main() {
  std::printf("Generating DBLP-like collaboration graph...\n");
  gt::TemporalGraph graph = gt::datagen::GenerateDblp();
  const std::size_t n = graph.num_times();

  // --- 1. Build the cube -------------------------------------------------------
  std::vector<gt::AttrRef> attrs = gt::ResolveAttributes(graph, {"gender", "publications"});
  gt::AggregateCube cube(&graph, attrs);
  gt::Stopwatch watch;
  watch.Start();
  cube.Materialize();
  std::printf("Cube base layer (%zu per-year aggregates of gender+publications) "
              "built in %.1f ms\n\n", n, watch.ElapsedMillis());

  // --- 2. Query without touching the graph --------------------------------------
  gt::AttrRef gender = attrs[0];
  auto print_gender_totals = [&](const gt::AggregateGraph& agg, const char* title) {
    std::printf("%s\n", title);
    agg.ForEachNode([&](const gt::AttrTuple& tuple, gt::Weight weight) {
      std::printf("  %s: %lld author-year appearances\n",
                  graph.ValueName(gender, tuple[0]).c_str(),
                  static_cast<long long>(weight));
    });
  };

  watch.Start();
  const std::size_t keep_gender[] = {0};
  gt::AggregateGraph decade =
      cube.Query(gt::IntervalSet::Range(n, 0, 9), keep_gender);
  double query_ms = watch.ElapsedMillis();
  print_gender_totals(decade, "Gender roll-up over the 2000s (from the cube):");
  std::printf("  answered in %.3f ms via %zu roll-ups + %zu combines\n\n", query_ms,
              cube.stats().rollups, cube.stats().combines);

  watch.Start();
  gt::AggregateGraph second_decade =
      cube.Query(gt::IntervalSet::Range(n, 10, 19), keep_gender);
  query_ms = watch.ElapsedMillis();
  print_gender_totals(second_decade, "Gender roll-up over the 2010s:");
  std::printf("  answered in %.3f ms — the subset layer was memoized "
              "(%zu cache hits)\n\n", query_ms, cube.stats().rollup_hits);

  // --- 3. Zoom out to 5-year periods ---------------------------------------------
  std::vector<gt::TimeGroup> periods = gt::UniformGrouping(graph, 5);
  gt::TemporalGraph coarse = gt::CoarsenTime(graph, periods);
  std::printf("Coarsened to %zu periods:\n", coarse.num_times());
  for (gt::TimeId g = 0; g < coarse.num_times(); ++g) {
    std::printf("  %-12s %6zu authors %8zu collaborations\n",
                coarse.time_label(g).c_str(), coarse.NodesAt(g), coarse.EdgesAt(g));
  }

  std::vector<gt::AttrRef> coarse_gender = gt::ResolveAttributes(coarse, {"gender"});
  gt::EvolutionAggregate evolution = gt::AggregateEvolution(
      coarse, gt::IntervalSet::Point(coarse.num_times(), 0),
      gt::IntervalSet::Point(coarse.num_times(),
                             static_cast<gt::TimeId>(coarse.num_times() - 1)),
      coarse_gender);
  std::printf("\nEvolution first period -> last period (authors by gender):\n");
  evolution.ForEachNode([&](const gt::AttrTuple& tuple,
                            const gt::EvolutionWeights& weights) {
    std::printf("  %s: stable %lld  new %lld  gone %lld\n",
                coarse.ValueName(coarse_gender[0], tuple[0]).c_str(),
                static_cast<long long>(weights.stability),
                static_cast<long long>(weights.growth),
                static_cast<long long>(weights.shrinkage));
  });

  // --- 4. Streaming: a new year arrives ------------------------------------------
  std::printf("\nA new snapshot (2021) arrives...\n");
  gt::TimeId t2021 = graph.AppendTimePoint("2021");
  // Re-ingest a slice of 2020's collaborations as the 2021 snapshot.
  gt::GraphView last_year = gt::Project(graph, gt::IntervalSet::Point(n + 1, t2021 - 1));
  std::size_t copied = 0;
  for (gt::EdgeId e : last_year.edges) {
    if (++copied % 3 != 0) continue;  // every third collaboration continues
    graph.SetEdgePresent(e, t2021);
  }
  watch.Start();
  cube.Refresh();
  std::printf("Ingested %zu edges for 2021; cube refreshed incrementally in %.1f ms\n",
              graph.EdgesAt(t2021), watch.ElapsedMillis());
  gt::AggregateGraph grown =
      cube.Query(gt::IntervalSet::Range(n + 1, 0, t2021), keep_gender);
  print_gender_totals(grown, "Gender roll-up over the full grown domain [2000..2021]:");
  return 0;
}
