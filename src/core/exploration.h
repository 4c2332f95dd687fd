#ifndef GRAPHTEMPO_CORE_EXPLORATION_H_
#define GRAPHTEMPO_CORE_EXPLORATION_H_

#include <optional>
#include <vector>

#include "core/aggregation.h"
#include "core/evolution.h"

/// \file
/// Evolution exploration (Section 3): find pairs of intervals between which
/// at least k events of a given type (stability / growth / shrinkage)
/// occurred.
///
/// Candidate interval pairs are built from the semi-lattice of contiguous
/// time ranges: one end of the pair is a fixed single time point (the
/// *reference*), the other end is extended one base time point at a time.
/// The extended side combines its points with either
///
///   * **union semantics** — an entity belongs to the side if it exists at ≥1
///     of its points (the relaxed view; the goal is then *minimal* pairs,
///     Def 3.4), or
///   * **intersection semantics** — the entity must exist at *every* point
///     (the strict view; the goal is then *maximal* pairs, Def 3.5).
///
/// The engine implements U-Explore and I-Explore with the monotonicity
/// pruning of Lemmas 3.3/3.9/3.10 and covers all twelve rows of the paper's
/// Table 1, including the degenerate rows where monotonicity makes a
/// single-level scan ("t.p. / t.p." rows) or a longest-interval check
/// ("longest interval" rows) sufficient.
///
/// The monotonicity lemmas — and therefore the pruning — hold for raw entity
/// counts and for selectors over *static* attributes (the paper's evaluation
/// uses gender, a static attribute). A tuple-filtered selector over a
/// time-varying attribute can be non-monotone, because extending an interval
/// also extends the attribute-collection window of surviving entities; use
/// `ExploreNaive` for such selectors if exactness matters.

namespace graphtempo {

/// How the extended side of a pair combines its time points.
enum class ExtensionSemantics { kUnion, kIntersection };

/// Which side of the pair stays a single time point.
enum class ReferenceEnd { kOld, kNew };

/// What to count as an "event" inside the event graph's aggregation.
struct EntitySelector {
  enum class Kind { kNodes, kEdges };

  Kind kind = Kind::kEdges;

  /// Aggregation attributes. May be empty, in which case raw entities are
  /// counted and no tuple filter may be set.
  std::vector<AttrRef> attrs;

  AggregationSemantics semantics = AggregationSemantics::kDistinct;

  /// For kind == kNodes: restrict to one aggregate node (e.g. gender "f").
  std::optional<AttrTuple> node_tuple;

  /// For kind == kEdges: restrict to one aggregate edge (e.g. f → f).
  std::optional<AttrTuple> src_tuple;
  std::optional<AttrTuple> dst_tuple;
};

/// A qualifying pair of intervals: old side, new side, and the event count.
struct IntervalPair {
  TimeRange old_range;
  TimeRange new_range;
  Weight count = 0;

  bool operator==(const IntervalPair&) const = default;
};

struct ExplorationSpec {
  EventType event = EventType::kStability;

  /// kUnion searches for minimal pairs; kIntersection for maximal pairs.
  ExtensionSemantics semantics = ExtensionSemantics::kUnion;

  /// Which end is the fixed reference time point. The other side is extended.
  ReferenceEnd reference = ReferenceEnd::kNew;

  EntitySelector selector;

  /// The event-count threshold k.
  Weight k = 1;
};

struct ExplorationResult {
  /// Qualifying minimal (union semantics) or maximal (intersection semantics)
  /// interval pairs, ordered by reference time point.
  std::vector<IntervalPair> pairs;

  /// Number of candidate pairs whose event count was evaluated — the cost
  /// metric that shows the monotonicity pruning at work.
  std::size_t evaluations = 0;
};

/// Counts the events of `spec.event` between `old_range` and `new_range`,
/// interpreting multi-point sides with `semantics`. This is `result(G)` of
/// the paper for one candidate pair; exposed for tests and examples.
///
/// Counted in code space by the explorers' kernel (docs/KERNELS.md §10):
/// raw and static DIST selectors are a popcount of the event bitset, other
/// selectors one walk over the event entities' appearances. The explorers
/// build that kernel once per run; this builds it per call.
Weight CountEvents(const TemporalGraph& graph, TimeRange old_range, TimeRange new_range,
                   ExtensionSemantics semantics, EventType event,
                   const EntitySelector& selector);

/// Runs U-Explore (spec.semantics == kUnion) or I-Explore (kIntersection)
/// over every admissible reference point.
ExplorationResult Explore(const TemporalGraph& graph, const ExplorationSpec& spec);

/// Direction of `result(G)` as the extended side grows, per Lemmas 3.3, 3.9
/// and 3.10. Exposed so tests can sweep the property directly.
bool IsMonotonicallyIncreasing(EventType event, ReferenceEnd reference,
                               ExtensionSemantics semantics);

/// Threshold initialization (Section 3.5): the minimum and maximum event
/// weight over all consecutive time-point pairs (t, t+1). Start from
/// `max_weight` and decrease for monotonically decreasing configurations;
/// start from `min_weight` and increase otherwise.
struct ThresholdSuggestion {
  Weight min_weight = 0;
  Weight max_weight = 0;
};

ThresholdSuggestion SuggestThreshold(const TemporalGraph& graph, EventType event,
                                     const EntitySelector& selector);

}  // namespace graphtempo

#endif  // GRAPHTEMPO_CORE_EXPLORATION_H_
