/// Collaboration-network scenario from the paper's introduction: use
/// GraphTempo to assess a diversity & inclusion action on a DBLP-like
/// co-authorship graph — did collaborations between female authors grow, and
/// in which periods? The example
///
///   1. generates the synthetic DBLP graph (Table 3 sizes),
///   2. tracks f-f collaboration growth per year (U-Explore, minimal pairs),
///   3. compares the decade before vs. the year after a hypothetical action
///      via the evolution graph, split by gender (Fig 12-style distribution).

#include <cstdio>

#include "core/evolution.h"
#include "core/exploration.h"
#include "datagen/dblp_gen.h"

namespace gt = graphtempo;

int main() {
  std::printf("Generating DBLP-like collaboration graph (paper Table 3 sizes)...\n");
  gt::TemporalGraph graph = gt::datagen::GenerateDblp();
  const std::size_t n = graph.num_times();
  std::printf("  %zu authors, %zu distinct collaborations, %zu years\n\n",
              graph.num_nodes(), graph.num_edges(), n);

  gt::AttrRef gender = *graph.FindAttribute("gender");
  gt::AttrTuple female;
  female.Append(*graph.FindValueCode(gender, "f"));

  // --- 1. Where did f-f collaborations grow the most? -------------------------
  gt::EntitySelector ff;
  ff.kind = gt::EntitySelector::Kind::kEdges;
  ff.attrs = {gender};
  ff.src_tuple = female;
  ff.dst_tuple = female;

  gt::ThresholdSuggestion suggestion =
      gt::SuggestThreshold(graph, gt::EventType::kGrowth, ff);
  std::printf("New f-f collaborations between consecutive years: min %lld, max %lld\n",
              static_cast<long long>(suggestion.min_weight),
              static_cast<long long>(suggestion.max_weight));

  gt::ExplorationSpec spec;
  spec.event = gt::EventType::kGrowth;
  spec.semantics = gt::ExtensionSemantics::kUnion;  // minimal pairs
  spec.reference = gt::ReferenceEnd::kOld;
  spec.selector = ff;
  spec.k = suggestion.max_weight;  // "interestingness" bar: the best base year
  gt::ExplorationResult growth = gt::Explore(graph, spec);
  std::printf("Minimal interval pairs with >= %lld new f-f collaborations:\n",
              static_cast<long long>(spec.k));
  for (const gt::IntervalPair& pair : growth.pairs) {
    std::printf("  after %s: new period [%s..%s], %lld new f-f edges\n",
                graph.time_label(pair.old_range.last).c_str(),
                graph.time_label(pair.new_range.first).c_str(),
                graph.time_label(pair.new_range.last).c_str(),
                static_cast<long long>(pair.count));
  }

  // --- 2. Decade-vs-year evolution, split by gender (Fig 12 style) --------------
  auto decade_report = [&](gt::TimeId decade_first, gt::TimeId decade_last,
                           gt::TimeId year) {
    gt::IntervalSet old_side = gt::IntervalSet::Range(n, decade_first, decade_last);
    gt::IntervalSet new_side = gt::IntervalSet::Point(n, year);
    std::vector<gt::AttrRef> attrs = {gender};
    gt::EvolutionAggregate evolution =
        gt::AggregateEvolution(graph, old_side, new_side, attrs);
    std::printf("\nEvolution [%s..%s] -> %s, authors by gender:\n",
                graph.time_label(decade_first).c_str(),
                graph.time_label(decade_last).c_str(), graph.time_label(year).c_str());
    evolution.ForEachNode([&](const gt::AttrTuple& tuple,
                              const gt::EvolutionWeights& weights) {
      long long total = weights.stability + weights.growth + weights.shrinkage;
      if (total == 0) return;
      std::printf("  %s: stable %lld (%.0f%%)  new %lld  gone %lld\n",
                  graph.ValueName(gender, tuple[0]).c_str(),
                  static_cast<long long>(weights.stability),
                  100.0 * static_cast<double>(weights.stability) /
                      static_cast<double>(total),
                  static_cast<long long>(weights.growth),
                  static_cast<long long>(weights.shrinkage));
    });
    const gt::EvolutionWeights ff = evolution.EdgeWeights(female, female);
    if (!(ff == gt::EvolutionWeights{})) {
      std::printf("  f-f collaborations: stable %lld  new %lld  gone %lld\n",
                  static_cast<long long>(ff.stability), static_cast<long long>(ff.growth),
                  static_cast<long long>(ff.shrinkage));
    }
  };
  decade_report(0, 9, 10);    // the 2000s vs 2010
  decade_report(10, 19, 20);  // the 2010s vs 2020

  // --- 3. Verdict ------------------------------------------------------------------
  gt::Weight early = gt::CountEvents(graph, gt::TimeRange{0, 0}, gt::TimeRange{1, 1},
                                     gt::ExtensionSemantics::kUnion,
                                     gt::EventType::kGrowth, ff);
  gt::Weight late = gt::CountEvents(
      graph, gt::TimeRange{static_cast<gt::TimeId>(n - 2), static_cast<gt::TimeId>(n - 2)},
      gt::TimeRange{static_cast<gt::TimeId>(n - 1), static_cast<gt::TimeId>(n - 1)},
      gt::ExtensionSemantics::kUnion, gt::EventType::kGrowth, ff);
  std::printf("\nYearly f-f growth, start vs. end of the period: %lld -> %lld (%.1fx)\n",
              static_cast<long long>(early), static_cast<long long>(late),
              early > 0 ? static_cast<double>(late) / static_cast<double>(early) : 0.0);
  return 0;
}
