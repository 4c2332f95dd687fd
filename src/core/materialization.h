#ifndef GRAPHTEMPO_CORE_MATERIALIZATION_H_
#define GRAPHTEMPO_CORE_MATERIALIZATION_H_

#include <span>
#include <vector>

#include "core/aggregation.h"

/// \file
/// Partial materialization (Section 4.3).
///
/// Materializing every (attribute set × interval) aggregate is unrealistic;
/// the paper instead identifies two distributivity properties that let cheap
/// aggregates be *derived* from precomputed ones without touching the
/// original graph:
///
///   * **D-distributive** (attribute dimension): an aggregate on A'' ⊆ A' is
///     obtained from the aggregate on A' by group-summing tuples projected to
///     the A'' positions → `RollUp`.
///   * **T-distributive** (time dimension): the ALL-semantics union aggregate
///     of an interval is the weight-sum of the per-time-point aggregates →
///     `MaterializationStore::UnionAllAggregate`. DIST union aggregates are
///     *not* T-distributive (distinct entities must be identified across time
///     points); the store GT_CHECKs against such misuse.

namespace graphtempo {

/// Derives the aggregate over the attribute subset selected by
/// `keep_positions` (indices into the original attribute list, in the desired
/// output order) by summing group weights. Works for any weights because
/// COUNT is distributive over the grouping. Runs on codes: each node code
/// projects to its code under the kept attributes, and the projected rows
/// sum by code.
AggregateGraph RollUp(const AggregateGraph& aggregate,
                      std::span<const std::size_t> keep_positions);

/// The weight-sum of `parts` per group: the T-distributive combine. Parts
/// may carry different codecs (answers computed before and after an append
/// grew a dictionary); the sum then decodes under one that holds them all.
AggregateGraph SumAggregates(std::span<const AggregateGraph* const> parts);

/// A cache of per-time-point ALL aggregates for one attribute list, plus the
/// T-distributive combiner. Per-time-point aggregates coincide for DIST and
/// ALL (paper, Fig 3), so the cache also serves single-point DIST queries.
class MaterializationStore {
 public:
  /// Does not take ownership of `graph`; `graph` must outlive the store.
  MaterializationStore(const TemporalGraph* graph, std::vector<AttrRef> attrs);

  /// Computes and caches the aggregate of every time point. Idempotent.
  void MaterializeAllTimePoints();

  /// Incremental maintenance after `TemporalGraph::AppendTimePoint`: computes
  /// aggregates only for time points added since the last (Materialize|
  /// Refresh); existing cache entries are untouched. No-op when up to date.
  void Refresh();

  bool materialized() const { return !per_time_.empty(); }

  /// The cached aggregate of the snapshot at `t`.
  const AggregateGraph& AtTimePoint(TimeId t) const;

  /// The ALL-semantics aggregate of the union graph over `interval`, derived
  /// from the cache by weight summation — no access to the original graph.
  AggregateGraph UnionAllAggregate(const IntervalSet& interval) const;

  const std::vector<AttrRef>& attrs() const { return attrs_; }

  /// How many time points are cached. Smaller than the graph's `num_times()`
  /// exactly when the cache is stale (AppendTimePoint without Refresh).
  std::size_t num_cached_points() const { return per_time_.size(); }

 private:
  const TemporalGraph* graph_;
  std::vector<AttrRef> attrs_;
  std::vector<AggregateGraph> per_time_;
};

}  // namespace graphtempo

#endif  // GRAPHTEMPO_CORE_MATERIALIZATION_H_
