#include "core/exploration.h"

#include "core/exploration_internal.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "accel/backend.h"
#include "core/stats.h"
#include "obs/trace.h"
#include "storage/bitset.h"
#include "util/parallel.h"

namespace graphtempo {

namespace internal_exploration {

namespace {

/// A side's members under `semantics`: the presence column itself for a
/// one-point side (the reference side always is one), otherwise a fold off
/// the interval index into `fold` — two sparse-table lookups, whatever the
/// side length.
const DynamicBitset& SideMembers(const PresenceIndex& index, TimeRange range,
                                 ExtensionSemantics semantics, DynamicBitset& fold) {
  if (range.length() == 1) return index.Column(range.first);
  GT_SPAN("explore/side_fold", {{"len", range.length()}});
  fold = semantics == ExtensionSemantics::kUnion
             ? index.UnionRange(range.first, range.last)
             : index.IntersectRange(range.first, range.last);
  return fold;
}

/// The event's members given both sides': stability is old ∧ new, growth
/// new − old and shrinkage old − new.
DynamicBitset CombineSides(const DynamicBitset& old_side, const DynamicBitset& new_side,
                           EventType event) {
  switch (event) {
    case EventType::kStability:
      return old_side & new_side;
    case EventType::kGrowth:
      return new_side - old_side;
    case EventType::kShrinkage:
      return old_side - new_side;
  }
  GT_CHECK(false) << "invalid event type";
  __builtin_unreachable();
}

/// Counts over the appearances of `entities` at `times` (read off the
/// columns of `presence` a word of entities at a time; `code_at(entity, t)`
/// is an appearance's code). Per entity: a totals selector adds its distinct
/// codes (DIST) or its appearances (ALL), so codes are read only for DIST
/// entities with several appearances; a `target` adds 1 if the entity
/// carries it at some appearance (DIST) or the number of appearances
/// carrying it (ALL).
template <typename CodeAt>
Weight CountAppearances(const DynamicBitset& entities, const PresenceIndex& presence,
                        std::span<const TimeId> times, bool distinct,
                        std::optional<std::uint64_t> target, const CodeAt& code_at) {
  GT_SPAN("explore/walk");
  const internal_grouping::SlotColumns columns(presence, times);
  internal_grouping::EntityCodes<internal_grouping::MetCode> met(times.size());
  const std::uint64_t* members = entities.word_data();
  Weight total = 0;
  for (std::size_t w = 0; w < entities.num_words(); ++w) {
    const std::uint64_t chosen = members[w];
    if (chosen == 0) continue;
    if (target.has_value()) {
      std::uint64_t carriers = 0;  // entities with an appearance carrying it
      Weight hits = 0;
      columns.ForEachAppearance(w, chosen, [&](std::size_t i, std::size_t slot) {
        if (code_at(w * 64 + i, times[slot]) != *target) return;
        carriers |= std::uint64_t{1} << i;
        ++hits;
      });
      total += distinct ? static_cast<Weight>(std::popcount(carriers)) : hits;
      continue;
    }
    // Totals: the entities seen at one slot add 1 each (an appearance, or
    // their one code); under DIST those seen at several count their codes.
    std::uint64_t seen = 0;
    std::uint64_t seen_again = 0;
    for (std::size_t s = 0; s < columns.slots(); ++s) {
      const std::uint64_t present = columns.Word(s, w) & chosen;
      if (!distinct) total += std::popcount(present);
      seen_again |= seen & present;
      seen |= present;
    }
    if (!distinct) continue;
    total += std::popcount(seen & ~seen_again);
    if (seen_again == 0) continue;
    met.Clear();
    columns.ForEachAppearance(w, seen_again, [&](std::size_t i, std::size_t slot) {
      total += met.FindOrAdd(i, code_at(w * 64 + i, times[slot])).second;
    });
  }
  return total;
}

}  // namespace

EventEngine::EventEngine(const TemporalGraph& graph, const EntitySelector& selector)
    : graph_(graph),
      nodes_(selector.kind == EntitySelector::Kind::kNodes),
      distinct_(selector.semantics == AggregationSemantics::kDistinct) {
  // The per-time columns live in the graph's PresenceIndex (maintained
  // incrementally — no per-run transposition). Force the lazy sparse tables
  // now so the parallel reference scans never serialize on the guarded build.
  graph.node_presence_index().EnsureTables();
  graph.edge_presence_index().EnsureTables();

  if (selector.attrs.empty()) {
    GT_CHECK(!selector.node_tuple && !selector.src_tuple && !selector.dst_tuple)
        << "tuple filters require aggregation attributes";
    return;  // raw entity counts: popcount(event)
  }
  if (!nodes_ && (selector.src_tuple.has_value() || selector.dst_tuple.has_value())) {
    GT_CHECK(selector.src_tuple.has_value() && selector.dst_tuple.has_value())
        << "edge tuple filter needs both src and dst tuples";
  }
  filtered_ = nodes_ ? selector.node_tuple.has_value() : selector.src_tuple.has_value();
  walk_ = !distinct_ || !std::all_of(selector.attrs.begin(), selector.attrs.end(),
                                     [](const AttrRef& ref) {
                                       return ref.kind == AttrRef::Kind::kStatic;
                                     });
  // A static DIST totals selector counts every event entity once: no codes.
  if (!walk_ && !filtered_) return;

  // Per-appearance codes over every time point when walking; one code per
  // node otherwise (static attributes).
  std::vector<TimeId> times;
  if (walk_) {
    for (TimeId t = 0; t < graph.num_times(); ++t) times.push_back(t);
  }
  codes_.emplace(graph, selector.attrs, times, /*filter=*/nullptr, "explore/codes");
  const std::uint64_t cells = codes_->cells();
  if (filtered_) {
    const std::optional<std::uint64_t> src =
        codes_->CodeOf(nodes_ ? *selector.node_tuple : *selector.src_tuple);
    const std::optional<std::uint64_t> dst =
        nodes_ ? src : codes_->CodeOf(*selector.dst_tuple);
    if (src.has_value() && dst.has_value()) target_ = nodes_ ? *src : *src * cells + *dst;
  }
  if (walk_) return;

  // Static DIST tuple filter: the entities carrying the tuple, as a bitset.
  match_ = DynamicBitset(nodes_ ? graph.num_nodes() : graph.num_edges());
  if (target_.has_value()) {
    if (nodes_) {
      for (NodeId n = 0; n < graph.num_nodes(); ++n) {
        if (codes_->At(n) == *target_) match_.Set(n);
      }
    } else {
      const std::span<const std::pair<NodeId, NodeId>> endpoints = graph.edge_endpoints();
      for (EdgeId e = 0; e < graph.num_edges(); ++e) {
        if (codes_->At(endpoints[e].first) * cells + codes_->At(endpoints[e].second) ==
            *target_) {
          match_.Set(e);
        }
      }
    }
  }
  codes_.reset();
}

DynamicBitset EventEngine::EventEntities(TimeRange old_range, TimeRange new_range,
                                         ExtensionSemantics semantics,
                                         EventType event) const {
  const PresenceIndex& edge_index = graph_.edge_presence_index();
  DynamicBitset old_fold, new_fold;
  if (!nodes_) {
    return CombineSides(SideMembers(edge_index, old_range, semantics, old_fold),
                        SideMembers(edge_index, new_range, semantics, new_fold), event);
  }
  const PresenceIndex& node_index = graph_.node_presence_index();
  const DynamicBitset& old_nodes = SideMembers(node_index, old_range, semantics, old_fold);
  const DynamicBitset& new_nodes = SideMembers(node_index, new_range, semantics, new_fold);
  DynamicBitset members = CombineSides(old_nodes, new_nodes, event);
  if (event == EventType::kStability) return members;

  // Def 2.5's node rule: a node on both sides (a survivor) still joins the
  // event as the endpoint of a difference edge, so only growth and shrinkage
  // node counts touch edges, to mark those endpoints; the walk over the
  // difference edges stops once every survivor is marked.
  DynamicBitset old_edge_fold, new_edge_fold;
  const DynamicBitset edges =
      CombineSides(SideMembers(edge_index, old_range, semantics, old_edge_fold),
                   SideMembers(edge_index, new_range, semantics, new_edge_fold), event);
  DynamicBitset survivors = old_nodes & new_nodes;
  std::size_t unmarked = survivors.Count();
  std::uint64_t* survivor_words = survivors.word_data();
  std::uint64_t* member_words = members.word_data();
  auto mark = [&](NodeId v) {
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    if ((survivor_words[v / 64] & bit) == 0) return;
    survivor_words[v / 64] &= ~bit;
    member_words[v / 64] |= bit;
    --unmarked;
  };
  const std::span<const std::pair<NodeId, NodeId>> endpoints = graph_.edge_endpoints();
  const std::uint64_t* edge_words = edges.word_data();
  for (std::size_t w = 0; w < edges.num_words() && unmarked > 0; ++w) {
    for (std::uint64_t bits = edge_words[w]; bits != 0; bits &= bits - 1) {
      const auto [src, dst] = endpoints[w * 64 + std::countr_zero(bits)];
      mark(src);
      mark(dst);
    }
  }
  return members;
}

Weight EventEngine::Count(TimeRange old_range, TimeRange new_range,
                          ExtensionSemantics semantics, EventType event) const {
  GT_SPAN("explore/candidate",
          {{"old_len", old_range.length()}, {"new_len", new_range.length()}});
  const DynamicBitset members = EventEntities(old_range, new_range, semantics, event);
  if (!walk_) {
    if (!filtered_) return static_cast<Weight>(members.Count());
    return static_cast<Weight>(accel::ActiveBackend().masked_popcount(
        members.word_data(), match_.word_data(), members.num_words()));
  }
  if (filtered_ && !target_.has_value()) return 0;

  // The event's time set: every event entity appears in it at least once,
  // so over one time point a totals count is the number of members.
  const std::size_t n = graph_.num_times();
  IntervalSet interval =
      IntervalSet::Of(n, event == EventType::kGrowth ? new_range : old_range);
  if (event == EventType::kStability) interval |= IntervalSet::Of(n, new_range);
  std::vector<TimeId> times;
  interval.ForEach([&](TimeId t) { times.push_back(t); });
  if (!filtered_ && times.size() == 1) return static_cast<Weight>(members.Count());

  const internal_grouping::NodeCodes& codes = *codes_;
  if (nodes_) {
    return CountAppearances(members, graph_.node_presence_index(), times, distinct_,
                            target_, [&](std::size_t node, TimeId t) -> std::uint64_t {
                              return codes.At(static_cast<NodeId>(node), t);
                            });
  }
  const std::uint64_t cells = codes.cells();
  const std::span<const std::pair<NodeId, NodeId>> endpoints = graph_.edge_endpoints();
  return CountAppearances(members, graph_.edge_presence_index(), times, distinct_, target_,
                          [&](std::size_t edge, TimeId t) -> std::uint64_t {
                            return codes.At(endpoints[edge].first, t) * cells +
                                   codes.At(endpoints[edge].second, t);
                          });
}

}  // namespace internal_exploration

Weight CountEvents(const TemporalGraph& graph, TimeRange old_range, TimeRange new_range,
                   ExtensionSemantics semantics, EventType event,
                   const EntitySelector& selector) {
  GT_CHECK_LT(old_range.last, new_range.first) << "old interval must precede new interval";
  return internal_exploration::EventEngine(graph, selector)
      .Count(old_range, new_range, semantics, event);
}

bool IsMonotonicallyIncreasing(EventType event, ReferenceEnd reference,
                               ExtensionSemantics semantics) {
  // The *extended* side is the one opposite the fixed reference.
  const bool extending_new = reference == ReferenceEnd::kOld;
  switch (event) {
    case EventType::kStability:
      // Lemma 3.3: union grows the graph, intersection shrinks it — on either side.
      return semantics == ExtensionSemantics::kUnion;
    case EventType::kGrowth:
      // T_new − T_old. Lemma 3.9: extending T_new with ∪ increases, extending
      // T_old with ∪ decreases. Lemma 3.10: the ∩ directions flip.
      return extending_new == (semantics == ExtensionSemantics::kUnion);
    case EventType::kShrinkage:
      // T_old − T_new: the mirror image of growth.
      return extending_new != (semantics == ExtensionSemantics::kUnion);
  }
  GT_CHECK(false) << "invalid event type";
  __builtin_unreachable();
}

ExplorationResult Explore(const TemporalGraph& graph, const ExplorationSpec& spec) {
  GT_CHECK_GE(spec.k, 1) << "threshold k must be positive";
  const std::size_t n = graph.num_times();
  GT_CHECK_GE(n, 2u) << "exploration needs at least two time points";
  GT_SPAN("explore/run",
          {{"times", n}, {"k", static_cast<std::uint64_t>(spec.k)}});

  const bool increasing =
      IsMonotonicallyIncreasing(spec.event, spec.reference, spec.semantics);
  const bool minimal_goal = spec.semantics == ExtensionSemantics::kUnion;

  // Builds the candidate pair for reference point `ref` and extension `len`.
  auto make_pair = [&](TimeId ref, std::size_t len) -> std::pair<TimeRange, TimeRange> {
    if (spec.reference == ReferenceEnd::kOld) {
      return {TimeRange{ref, ref},
              TimeRange{ref + 1, static_cast<TimeId>(ref + len)}};
    }
    return {TimeRange{static_cast<TimeId>(ref - len), static_cast<TimeId>(ref - 1)},
            TimeRange{ref, ref}};
  };

  // One engine for the whole run: the selector's codes, target and match
  // bitset are built once, and every candidate pair costs a few word-parallel
  // set operations plus, for per-appearance selectors, one walk over the
  // event's rows.
  internal_exploration::EventEngine engine(graph, spec.selector);

  const TimeId ref_begin = spec.reference == ReferenceEnd::kOld ? 0 : 1;
  const TimeId ref_end =
      spec.reference == ReferenceEnd::kOld ? static_cast<TimeId>(n - 1)
                                           : static_cast<TimeId>(n);

  /// What one reference point's scan produced: at most one qualifying pair,
  /// plus how many candidates it evaluated.
  struct RefOutcome {
    std::optional<IntervalPair> pair;
    std::size_t evaluations = 0;
  };

  // The scan of one reference point. The early-exit pruning of U-/I-Explore
  // is a *per-reference* chain (each length depends on the previous count at
  // the same reference), but distinct reference points never interact — so
  // exploration parallelizes across references while the pruning inside each
  // stays intact. `engine.Count` is const and allocates only locals.
  auto scan_reference = [&](TimeId ref) -> RefOutcome {
    RefOutcome outcome;
    const std::size_t max_len =
        spec.reference == ReferenceEnd::kOld ? (n - 1 - ref) : ref;
    if (max_len == 0) return outcome;

    auto evaluate = [&](std::size_t len) -> Weight {
      auto [old_range, new_range] = make_pair(ref, len);
      ++outcome.evaluations;
      return engine.Count(old_range, new_range, spec.semantics, spec.event);
    };
    auto record = [&](std::size_t len, Weight count) {
      auto [old_range, new_range] = make_pair(ref, len);
      outcome.pair = IntervalPair{old_range, new_range, count};
    };

    if (minimal_goal) {
      if (increasing) {
        // U-Explore: extend until the threshold is first met; that pair is
        // minimal for this reference, and monotonicity prunes the rest.
        for (std::size_t len = 1; len <= max_len; ++len) {
          Weight count = evaluate(len);
          if (count >= spec.k) {
            record(len, count);
            break;
          }
        }
      } else {
        // Monotonically decreasing while searching minimal pairs: only the
        // shortest extension can qualify (the "⊆ of" rows of Table 1).
        Weight count = evaluate(1);
        if (count >= spec.k) record(1, count);
      }
    } else {
      if (!increasing) {
        // I-Explore: extend while the threshold holds; the last surviving
        // extension is the maximal pair. The first failure prunes the rest.
        std::optional<std::pair<std::size_t, Weight>> best;
        for (std::size_t len = 1; len <= max_len; ++len) {
          Weight count = evaluate(len);
          if (count < spec.k) break;
          best = {len, count};
        }
        if (best.has_value()) record(best->first, best->second);
      } else {
        // Monotonically increasing while searching maximal pairs: the longest
        // extension dominates — a single check suffices (the "longest
        // interval" rows of Table 1).
        Weight count = evaluate(max_len);
        if (count >= spec.k) record(max_len, count);
      }
    }
    return outcome;
  };

  // Chunked over reference points; per-chunk outcomes are stitched together
  // in ascending reference order, so `result.pairs` and `result.evaluations`
  // are identical at any thread count.
  const std::size_t ref_count =
      ref_end > ref_begin ? static_cast<std::size_t>(ref_end - ref_begin) : 0;
  ParallelPartition partition(ref_count, /*min_per_chunk=*/1, /*alignment=*/1);
  std::vector<std::vector<RefOutcome>> chunk_outcomes(partition.num_chunks());
  partition.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    std::vector<RefOutcome>& outcomes = chunk_outcomes[chunk];
    outcomes.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      outcomes.push_back(scan_reference(static_cast<TimeId>(ref_begin + i)));
    }
  });

  ExplorationResult result;
  for (const std::vector<RefOutcome>& outcomes : chunk_outcomes) {
    for (const RefOutcome& outcome : outcomes) {
      result.evaluations += outcome.evaluations;
      if (outcome.pair.has_value()) result.pairs.push_back(*outcome.pair);
    }
  }
  internal_counters::AddExploreEvaluations(result.evaluations);
  return result;
}

ThresholdSuggestion SuggestThreshold(const TemporalGraph& graph, EventType event,
                                     const EntitySelector& selector) {
  const std::size_t n = graph.num_times();
  GT_CHECK_GE(n, 2u) << "threshold suggestion needs at least two time points";
  // Consecutive pairs are independent; min/max are order-insensitive, so the
  // result is identical at any thread count.
  const internal_exploration::EventEngine engine(graph, selector);
  std::vector<Weight> counts(n - 1);
  ParallelPartition partition(n - 1, /*min_per_chunk=*/1, /*alignment=*/1);
  partition.Run([&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      TimeId t = static_cast<TimeId>(i);
      counts[i] = engine.Count(TimeRange{t, t}, TimeRange{t + 1, t + 1},
                               ExtensionSemantics::kUnion, event);
    }
  });
  ThresholdSuggestion suggestion;
  suggestion.min_weight = suggestion.max_weight = counts[0];
  for (Weight count : counts) {
    suggestion.min_weight = std::min(suggestion.min_weight, count);
    suggestion.max_weight = std::max(suggestion.max_weight, count);
  }
  return suggestion;
}

}  // namespace graphtempo
