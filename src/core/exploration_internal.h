#ifndef GRAPHTEMPO_CORE_EXPLORATION_INTERNAL_H_
#define GRAPHTEMPO_CORE_EXPLORATION_INTERNAL_H_

#include <cstdint>
#include <optional>

#include "core/exploration.h"
#include "core/grouping_internal.h"

/// \file
/// Internal machinery shared by the explorers (pruned, exhaustive, both-ends)
/// and the threshold suggestion. Not part of the public API.

namespace graphtempo::internal_exploration {

/// The explorers' counting kernel: `result(G)` of many candidate pairs
/// against one selector, counted in code space (docs/KERNELS.md §10). No
/// event graph is materialized and nothing is aggregated.
///
/// A candidate's event entities are a bitset of fold algebra over the
/// graph's column-major `PresenceIndex`: two sparse-table lookups per
/// multi-point side, the column itself for the one-point reference side.
/// The count is then
///   * popcount(event) for raw selectors and static DIST totals selectors,
///     and popcount(event ∧ match) for static DIST tuple filters, with the
///     match bitset built once per engine from packed codes;
///   * otherwise one walk over the event entities' appearances in the
///     event's time set, a word of entities at a time off the presence
///     columns (`SlotColumns`), reading per-appearance codes from `NodeCodes`
///     hoisted once per engine: distinct codes (DIST) or appearances (ALL)
///     for a totals selector, the target code's presence (DIST) or its
///     appearances (ALL) for a tuple filter.
/// `Count` is const and allocates only locals, so one engine serves every
/// pool chunk of a run.
class EventEngine {
 public:
  /// `graph` must outlive the engine.
  EventEngine(const TemporalGraph& graph, const EntitySelector& selector);

  /// result(G) of the candidate pair (old_range, new_range); the old range
  /// must precede the new one.
  Weight Count(TimeRange old_range, TimeRange new_range, ExtensionSemantics semantics,
               EventType event) const;

 private:
  /// The entities of the event between the two sides (fold algebra).
  DynamicBitset EventEntities(TimeRange old_range, TimeRange new_range,
                              ExtensionSemantics semantics, EventType event) const;

  const TemporalGraph& graph_;
  const bool nodes_;     // node selector; edge selector otherwise
  const bool distinct_;  // DIST semantics; ALL otherwise
  bool filtered_ = false;  // a tuple filter restricts the count
  bool walk_ = false;      // counted per appearance: time-varying attributes or ALL
  // The filter's code (edges: code(src) · cells + code(dst)); nullopt when
  // no entity can carry the filtered tuple.
  std::optional<std::uint64_t> target_;
  std::optional<internal_grouping::NodeCodes> codes_;  // per appearance, when walking
  DynamicBitset match_;  // static DIST filter: entities carrying the tuple
};

}  // namespace graphtempo::internal_exploration

#endif  // GRAPHTEMPO_CORE_EXPLORATION_INTERNAL_H_
