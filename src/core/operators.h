#ifndef GRAPHTEMPO_CORE_OPERATORS_H_
#define GRAPHTEMPO_CORE_OPERATORS_H_

#include <vector>

#include "core/interval.h"
#include "core/temporal_graph.h"

/// \file
/// The temporal operators of Section 2.1: project (Def 2.2), union (Def 2.3,
/// Algorithm 1), intersection (Def 2.4) and difference (Def 2.5).
///
/// Each operator returns a `GraphView`: the ids of the selected nodes and
/// edges plus the interval over which the result graph is defined. A view is
/// a restriction of the parent graph's labeled arrays, not a copy — exactly
/// the "restrict the input tables to the columns of T₁ ∪ T₂" step of
/// Algorithm 1 — and is the input that attribute aggregation consumes.

namespace graphtempo {

/// The result of a temporal operator: a subgraph of a `TemporalGraph`
/// restricted to an evaluation interval.
struct GraphView {
  /// Node ids in ascending order.
  std::vector<NodeId> nodes;

  /// Edge ids in ascending order.
  std::vector<EdgeId> edges;

  /// The time points over which the result is defined. Attribute instances of
  /// a node u are collected over τu(u) ∩ times (Definitions 2.3–2.5: T₁ ∪ T₂
  /// for union/intersection, T₁ for the difference T₁ − T₂).
  IntervalSet times;

  std::size_t NodeCount() const { return nodes.size(); }
  std::size_t EdgeCount() const { return edges.size(); }
};

/// Supplies presence-index interval folds to the operators. Every operator
/// bottoms out in "OR/AND the columns selected by this time mask" — routing
/// those folds through a provider lets a batch executor memoize folds shared
/// by concurrent queries (engine/batch.h) while single queries pay nothing:
/// the provider-less overloads below use a transient provider that simply
/// forwards to the index. Returned references stay valid until the provider
/// is destroyed.
class PresenceFoldProvider {
 public:
  virtual ~PresenceFoldProvider() = default;

  /// `index.UnionOver(times)`, possibly memoized.
  virtual const DynamicBitset& UnionFold(const PresenceIndex& index,
                                         const DynamicBitset& times) = 0;

  /// `index.IntersectionOver(times)`, possibly memoized.
  virtual const DynamicBitset& IntersectionFold(const PresenceIndex& index,
                                                const DynamicBitset& times) = 0;
};

/// Time projection (Def 2.2): nodes/edges that exist throughout T₁ (T₁ ⊆ τ),
/// defined on T₁. For a single time point this is the snapshot at that point.
GraphView Project(const TemporalGraph& graph, const IntervalSet& t1);
GraphView Project(const TemporalGraph& graph, const IntervalSet& t1,
                  PresenceFoldProvider& folds);

/// Union (Def 2.3): entities existing at ≥1 time point of T₁ or of T₂,
/// defined on T₁ ∪ T₂.
GraphView UnionOp(const TemporalGraph& graph, const IntervalSet& t1,
                  const IntervalSet& t2);
GraphView UnionOp(const TemporalGraph& graph, const IntervalSet& t1,
                  const IntervalSet& t2, PresenceFoldProvider& folds);

/// Intersection (Def 2.4): entities existing at ≥1 time point of T₁ *and* ≥1
/// time point of T₂, defined on T₁ ∪ T₂. This is the stable part of the graph.
GraphView IntersectionOp(const TemporalGraph& graph, const IntervalSet& t1,
                         const IntervalSet& t2);
GraphView IntersectionOp(const TemporalGraph& graph, const IntervalSet& t1,
                         const IntervalSet& t2, PresenceFoldProvider& folds);

/// Difference T₁ − T₂ (Def 2.5): edges existing in T₁ but at no time of T₂;
/// nodes existing in T₁ that either vanish in T₂ or are endpoints of a
/// difference edge. Defined on T₁. Not symmetric: with T₁ preceding T₂ this
/// captures deletions (shrinkage); swap the arguments for additions (growth).
GraphView DifferenceOp(const TemporalGraph& graph, const IntervalSet& t1,
                       const IntervalSet& t2);
GraphView DifferenceOp(const TemporalGraph& graph, const IntervalSet& t1,
                       const IntervalSet& t2, PresenceFoldProvider& folds);

}  // namespace graphtempo

#endif  // GRAPHTEMPO_CORE_OPERATORS_H_
