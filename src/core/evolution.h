#ifndef GRAPHTEMPO_CORE_EVOLUTION_H_
#define GRAPHTEMPO_CORE_EVOLUTION_H_

#include <span>
#include <vector>

#include "core/aggregation.h"
#include "core/operators.h"

/// \file
/// The evolution graph (Definition 2.7) and its aggregation.
///
/// The evolution graph between two interval sets T₁ (old) and T₂ (new)
/// overlays three operator results:
///
///   * **stability** — the intersection graph on (T₁, T₂): entities present in
///     both intervals;
///   * **shrinkage** — the difference graph T₁ − T₂: entities that disappear;
///   * **growth**    — the difference graph T₂ − T₁: entities that appear.
///
/// Aggregating the evolution graph aggregates each component and overlays the
/// three weights per aggregate entity (paper Fig 4b), so one can read off,
/// e.g., how many female-female collaborations were stable / new / deleted.

namespace graphtempo {

/// The three event types of Section 3.
enum class EventType { kStability, kGrowth, kShrinkage };

/// Returns "stability" / "growth" / "shrinkage".
const char* EventTypeName(EventType event);

/// The evolution graph as its three constituent views.
struct EvolutionGraph {
  GraphView stability;  ///< G∩ on (T₁, T₂)
  GraphView shrinkage;  ///< G₋ on T₁ − T₂
  GraphView growth;     ///< G₋ on T₂ − T₁

  const GraphView& ForEvent(EventType event) const;
};

/// Builds the evolution graph between `t_old` and `t_new` (Def 2.7).
EvolutionGraph MakeEvolutionGraph(const TemporalGraph& graph, const IntervalSet& t_old,
                                  const IntervalSet& t_new);

/// Per-aggregate-entity weights of the overlaid aggregation (Fig 4b).
struct EvolutionWeights {
  Weight stability = 0;
  Weight growth = 0;
  Weight shrinkage = 0;

  Weight ForEvent(EventType event) const;

  EvolutionWeights& operator+=(const EvolutionWeights& other) {
    stability += other.stability;
    growth += other.growth;
    shrinkage += other.shrinkage;
    return *this;
  }

  bool operator==(const EvolutionWeights&) const = default;
};

/// The aggregate evolution graph: tuples / tuple pairs → three weights, held
/// as code-ordered rows (CodedGraph).
class EvolutionAggregate : public CodedGraph<EvolutionWeights> {
 public:
  using CodedGraph::CodedGraph;

  /// Weights of an aggregate node / edge; all-zero if absent.
  EvolutionWeights NodeWeights(const AttrTuple& tuple) const { return FindNode(tuple); }
  EvolutionWeights EdgeWeights(const AttrTuple& src, const AttrTuple& dst) const {
    return FindEdge(src, dst);
  }
};

/// Aggregates the evolution graph "as a whole" (paper Fig 4b): for every
/// entity of the evolution graph, its distinct attribute tuples in the old
/// interval are compared against those in the new interval, and each tuple
/// transition is classified —
///
///   * tuple present on the entity in both intervals  → **stability**,
///   * tuple present only in the new interval         → **growth**
///     (covers both newly-appearing entities and attribute-value changes,
///     e.g. u₄ moving from (f,2) to (f,1) adds growth to (f,1)),
///   * tuple present only in the old interval         → **shrinkage**.
///
/// Counting is per (entity, tuple) — DIST semantics. The optional `filter`
/// hides (node, time) appearances, which is how the paper's Fig 12 restricts
/// the evolution graph to high-activity authors (#publications > 4): an
/// entity filtered out of one interval entirely is treated as absent there.
///
/// Only entities of fold(T₁) ∪ fold(T₂) are scanned. With static attributes
/// and no filter an entity's tuple cannot change, so its event follows from
/// fold membership alone; otherwise each entity's distinct group codes are
/// collected with the intervals they appeared in. Weights accumulate per
/// group code in dense per-chunk tables (hashed above the dense thresholds),
/// merge in chunk order and become the answer's code-ordered rows
/// (docs/KERNELS.md §9).
EvolutionAggregate AggregateEvolution(const TemporalGraph& graph, const IntervalSet& t_old,
                                      const IntervalSet& t_new,
                                      std::span<const AttrRef> attrs,
                                      const NodeTimeFilter* filter = nullptr);

/// One aggregate node group and its weight under a chosen event type.
struct RankedNodeGroup {
  AttrTuple tuple;
  Weight weight = 0;

  bool operator==(const RankedNodeGroup&) const = default;
};

/// One aggregate edge group and its weight under a chosen event type.
struct RankedEdgeGroup {
  AttrTuplePair pair;
  Weight weight = 0;

  bool operator==(const RankedEdgeGroup&) const = default;
};

/// The strongest attribute groups for one event between two intervals.
struct TopEventGroups {
  std::vector<RankedNodeGroup> nodes;  ///< weight-descending, ≤ top_k entries
  std::vector<RankedEdgeGroup> edges;  ///< weight-descending, ≤ top_k entries
};

/// Ranks the aggregate entities of the evolution graph between `t_old` and
/// `t_new` by their `event` weight — "which groups grew/shrank/persisted the
/// most?", the attribute-group half of the interactive exploration the
/// paper's conclusion sketches. Zero-weight groups are omitted; ties are
/// broken by group code (tuple order) so the ranking is deterministic.
TopEventGroups RankEventGroups(const TemporalGraph& graph, const IntervalSet& t_old,
                               const IntervalSet& t_new, std::span<const AttrRef> attrs,
                               EventType event, std::size_t top_k,
                               const NodeTimeFilter* filter = nullptr);

}  // namespace graphtempo

#endif  // GRAPHTEMPO_CORE_EVOLUTION_H_
