#include "core/materialization.h"

#include <algorithm>

#include "core/grouping_internal.h"
#include "core/operators.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace graphtempo {

namespace {

/// The weight-sum of `parts` under codec `to`: `node_code(p, code)` maps a
/// node code of part p into `to`, and an edge code is split into its two
/// node codes, each mapped.
template <typename NodeCode>
AggregateGraph Recode(std::span<const AggregateGraph* const> parts, const TupleCodec& to,
                      const NodeCode& node_code) {
  std::size_t node_rows = 0, edge_rows = 0;
  for (const AggregateGraph* part : parts) {
    node_rows += part->NodeCount();
    edge_rows += part->EdgeCount();
  }
  const std::uint64_t cells = to.cells();
  auto nodes = internal_grouping::SumTable<Weight>(cells, node_rows);
  auto edges = internal_grouping::SumTable<Weight>(cells * cells, edge_rows);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::uint64_t from = parts[p]->codec().cells();
    for (const GroupRow<Weight>& row : parts[p]->nodes()) {
      nodes[node_code(p, row.code)] += row.weight;
    }
    for (const GroupRow<Weight>& row : parts[p]->edges()) {
      edges[node_code(p, row.code / from) * cells + node_code(p, row.code % from)] +=
          row.weight;
    }
  }
  return AggregateGraph(to, nodes.Rows(), edges.Rows());
}

/// A codec that encodes every tuple of `parts`: their shared codec, or —
/// when an append grew a dictionary between them — the numbering of their
/// tuples.
TupleCodec CommonCodec(std::span<const AggregateGraph* const> parts) {
  const TupleCodec& first = parts.front()->codec();
  if (std::all_of(parts.begin(), parts.end(),
                  [&](const AggregateGraph* part) { return part->codec() == first; })) {
    return first;
  }
  std::vector<AttrTuple> tuples;
  for (const AggregateGraph* part : parts) {
    part->ForEachNode([&](const AttrTuple& tuple, Weight) { tuples.push_back(tuple); });
    part->ForEachEdge([&](const AttrTuple& src, const AttrTuple& dst, Weight) {
      tuples.push_back(src);
      tuples.push_back(dst);
    });
  }
  return TupleCodec::Numbered(std::move(tuples));
}

}  // namespace

AggregateGraph RollUp(const AggregateGraph& aggregate,
                      std::span<const std::size_t> keep_positions) {
  GT_CHECK(!keep_positions.empty()) << "roll-up must keep at least one attribute";
  // Duplicate positions are rejected up front: a duplicated column does not
  // merge any groups, so the "rolled-up" weights silently double-report the
  // same attribute instead of summing anything — never what a caller wants.
  for (std::size_t i = 0; i < keep_positions.size(); ++i) {
    for (std::size_t j = i + 1; j < keep_positions.size(); ++j) {
      GT_CHECK(keep_positions[i] != keep_positions[j])
          << "duplicate roll-up position " << keep_positions[i];
    }
  }
  // Range-check against the codec's arity once, rather than per row: an
  // out-of-range position must abort even when the aggregate is small.
  const TupleCodec& from = aggregate.codec();
  if (aggregate.NodeCount() + aggregate.EdgeCount() == 0) return AggregateGraph{};
  for (std::size_t position : keep_positions) {
    GT_CHECK_LT(position, from.arity()) << "roll-up position out of tuple range";
  }
  // Each node code projects through its tuple: to the packed codec of the
  // kept radices, or to the numbering of the projected tuples.
  auto project = [&](const AttrTuple& tuple) {
    AttrTuple kept;
    for (std::size_t position : keep_positions) kept.Append(tuple[position]);
    return kept;
  };
  TupleCodec to;
  if (from.packed()) {
    std::vector<std::uint64_t> radices;
    for (std::size_t position : keep_positions) radices.push_back(from.radix(position));
    to = *TupleCodec::Packed(radices, from.cells());
  } else {
    std::vector<AttrTuple> projected;
    for (const AttrTuple& tuple : from.tuples()) projected.push_back(project(tuple));
    to = TupleCodec::Numbered(std::move(projected));
  }
  const AggregateGraph* parts[] = {&aggregate};
  return Recode(parts, to, [&](std::size_t, std::uint64_t code) {
    return *to.Encode(project(from.Decode(code)));
  });
}

AggregateGraph SumAggregates(std::span<const AggregateGraph* const> parts) {
  std::vector<const AggregateGraph*> held;
  for (const AggregateGraph* part : parts) {
    if (part->NodeCount() + part->EdgeCount() > 0) held.push_back(part);
  }
  if (held.empty()) return AggregateGraph{};
  parts = held;
  const TupleCodec to = CommonCodec(parts);
  std::vector<bool> same(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) same[p] = parts[p]->codec() == to;
  return Recode(parts, to, [&](std::size_t p, std::uint64_t code) {
    return same[p] ? code : *to.Encode(parts[p]->codec().Decode(code));
  });
}

MaterializationStore::MaterializationStore(const TemporalGraph* graph,
                                           std::vector<AttrRef> attrs)
    : graph_(graph), attrs_(std::move(attrs)) {
  GT_CHECK(graph_ != nullptr);
  GT_CHECK(!attrs_.empty()) << "materialization needs at least one attribute";
}

void MaterializationStore::MaterializeAllTimePoints() {
  if (materialized()) return;
  Refresh();
}

void MaterializationStore::Refresh() {
  const TimeId first_new = static_cast<TimeId>(per_time_.size());
  const TimeId num_times = static_cast<TimeId>(graph_->num_times());
  if (first_new >= num_times) return;
  GT_SPAN("materialize/all",
          {{"points", static_cast<std::uint64_t>(num_times - first_new)}});
  per_time_.resize(num_times);
  // Time points are independent snapshots; each chunk fills disjoint slots of
  // `per_time_`, so the cache is identical at any thread count. The nested
  // Project/Aggregate calls may themselves fan out — the shared pool is
  // reentrant.
  ParallelPartition partition(static_cast<std::size_t>(num_times - first_new),
                              /*min_per_chunk=*/1, /*alignment=*/1);
  partition.Run([&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      TimeId t = static_cast<TimeId>(first_new + i);
      GT_SPAN("materialize/point", {{"t", static_cast<std::uint64_t>(t)}});
      GraphView snapshot = Project(*graph_, IntervalSet::Point(graph_->num_times(), t));
      per_time_[t] = Aggregate(*graph_, snapshot, attrs_, AggregationSemantics::kAll);
    }
  });
}

const AggregateGraph& MaterializationStore::AtTimePoint(TimeId t) const {
  GT_CHECK(materialized()) << "call MaterializeAllTimePoints() first";
  GT_CHECK_LT(t, per_time_.size()) << "time out of range";
  return per_time_[t];
}

AggregateGraph MaterializationStore::UnionAllAggregate(const IntervalSet& interval) const {
  GT_CHECK(materialized()) << "call MaterializeAllTimePoints() first";
  GT_CHECK_EQ(interval.domain_size(), graph_->num_times()) << "time domain mismatch";
  GT_CHECK_EQ(per_time_.size(), graph_->num_times())
      << "cache is stale — call Refresh() after AppendTimePoint()";
  GT_CHECK(!interval.Empty()) << "interval must be non-empty";
  std::vector<const AggregateGraph*> points;
  interval.ForEach([&](TimeId t) { points.push_back(&per_time_[t]); });
  return SumAggregates(points);
}

}  // namespace graphtempo
