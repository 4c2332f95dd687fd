#include "core/aggregation.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "accel/backend.h"
#include "core/grouping_internal.h"
#include "core/stats.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace graphtempo {

namespace {

using internal_grouping::GroupWeights;
using internal_grouping::NodeCodes;

bool AllStatic(std::span<const AttrRef> attrs) {
  return std::all_of(attrs.begin(), attrs.end(), [](const AttrRef& ref) {
    return ref.kind == AttrRef::Kind::kStatic;
  });
}

/// Scans one side of Algorithm 2 (the view's nodes or its edges) on the
/// pool, one private GroupWeights per chunk keyed by group code. With
/// `static_codes` (Section 4.2: static attributes, no filter),
/// `code_of(entity)` is the entity's one code and it weighs 1 under DIST and
/// the popcount of its presence row under the view interval under ALL.
/// Otherwise one walk over the row under the interval reads
/// `code_at(entity, t)` per appearance (nullopt: hidden by the filter); ALL
/// counts every appearance, DIST each distinct code of the entity once,
/// deduplicated in reused chunk scratch. Entities are independent, so
/// chunking over the entity list is safe.
template <typename Entity, typename CodeOf, typename CodeAt>
std::vector<GroupWeights<Weight>> ScanSide(const char* span_name,
                                           std::span<const Entity> entities,
                                           const BitMatrix& presence,
                                           const IntervalSet& interval, bool distinct,
                                           bool static_codes, bool dense,
                                           std::uint64_t codes, const CodeOf& code_of,
                                           const CodeAt& code_at) {
  GT_SPAN(span_name, {{"rows", entities.size()}, {"dense", dense ? 1u : 0u}});
  const std::uint64_t* mask = interval.bits().word_data();
  const std::size_t words = presence.words_per_row();
  auto scan_chunk = [&](std::size_t begin, std::size_t end, const auto& cell) {
    if (static_codes && distinct) {
      // Apart from the ALL loop: without the kernel call inside it, the code
      // lookups' loads stay hoisted out of the loop.
      for (std::size_t i = begin; i < end; ++i) ++cell(code_of(entities[i]));
      return;
    }
    if (static_codes) {
      // The interval mask is chunk-invariant: hoist the backend dispatch and
      // call the masked popcount kernel directly per row.
      const accel::KernelBackend& backend = accel::ActiveBackend();
      for (std::size_t i = begin; i < end; ++i) {
        const Weight weight = static_cast<Weight>(
            backend.masked_popcount(presence.row_words(entities[i]), mask, words));
        if (weight > 0) cell(code_of(entities[i])) += weight;
      }
      return;
    }
    std::vector<std::uint64_t> seen;
    for (std::size_t i = begin; i < end; ++i) {
      const Entity entity = entities[i];
      internal_grouping::ForEachAppearanceCode(
          presence.row_words(entity), mask, words, distinct ? &seen : nullptr,
          [&](TimeId t) { return code_at(entity, t); },
          [&](std::uint64_t code) { ++cell(code); });
    }
  };
  return internal_grouping::ScanChunks<Weight>(
      ParallelPartition(entities.size(), internal_grouping::kGroupMinPerChunk,
                        /*alignment=*/1),
      dense, codes, scan_chunk);
}

/// Merges one side's chunk tables in ascending chunk order and calls
/// `emit(code, weight)` for every group (ascending by code when dense).
/// Returns the merge time in nanoseconds.
template <typename Emit>
std::uint64_t MergeSide(const char* span_name, std::vector<GroupWeights<Weight>>& parts,
                        bool dense, const Emit& emit) {
  GT_SPAN(span_name, {{"chunks", parts.size()}, {"dense", dense ? 1u : 0u}});
  Stopwatch merge_watch;
  merge_watch.Start();
  internal_grouping::MergeChunks(parts).ForEach(emit);
  internal_counters::AddGroupingPath(dense ? 1 : 0, dense ? 0 : 1);
  return static_cast<std::uint64_t>(merge_watch.ElapsedMicros()) * 1000u;
}

/// Runs Algorithm 2 on group codes (NodeCodes, shared with the evolution
/// aggregation): each side scans into per-chunk tables on the pool — flat
/// arrays when ResolveGrouping says dense, hash maps on the code otherwise —
/// merges them in ascending chunk order, and decodes each group to its
/// tuple once, when it is emitted. The answer is the same at any thread
/// count and under either grouping.
///
/// Per-stage counters (rows scanned, chunks, merge time, dense/hash group
/// sides) feed `GetExecCounters`.
AggregateGraph AggregateImpl(const TemporalGraph& graph, const GraphView& view,
                             std::span<const AttrRef> attrs,
                             const AggregationOptions& options) {
  GT_SPAN("agg/aggregate", {{"nodes", view.nodes.size()},
                            {"edges", view.edges.size()}});
  GT_CHECK_EQ(view.times.domain_size(), graph.num_times())
      << "view interval does not match the graph's time domain";
  const GroupingResolution grouping = ResolveGrouping(graph, attrs, options.grouping);
  if (options.grouping == GroupingStrategy::kDense) {
    GT_CHECK(grouping.dense_nodes && grouping.dense_edges)
        << "attribute domain too large for forced dense grouping";
  }
  const bool distinct = options.semantics == AggregationSemantics::kDistinct;
  const bool static_codes = options.filter == nullptr && AllStatic(attrs);
  std::vector<TimeId> times;
  if (!static_codes) view.times.ForEach([&](TimeId t) { times.push_back(t); });
  if (!static_codes && times.empty()) return AggregateGraph{};  // no appearance
  const NodeCodes codes(graph, attrs, times, options.filter, "agg/codes");
  const std::uint64_t cells = codes.cells();
  const std::span<const std::pair<NodeId, NodeId>> endpoints = graph.edge_endpoints();

  AggregateGraph result;
  std::vector<GroupWeights<Weight>> node_parts = ScanSide(
      "agg/nodes_scan", std::span<const NodeId>(view.nodes), graph.node_presence(),
      view.times, distinct, static_codes, grouping.dense_nodes, cells,
      [&](NodeId n) -> std::uint64_t { return codes.At(n); },
      [&](NodeId n, TimeId t) -> std::optional<std::uint64_t> {
        const std::uint32_t code = codes.At(n, t);
        if (code == NodeCodes::kHidden) return std::nullopt;
        return code;
      });
  std::uint64_t merge_nanos = MergeSide(
      "agg/nodes_merge", node_parts, grouping.dense_nodes,
      [&](std::uint64_t code, Weight w) { result.AddNodeWeight(codes.Tuple(code), w); });

  // Edge code: code(src) · cells + code(dst). A view without edges skips
  // the side: even an empty scan would zero a dense table of cells² weights.
  std::vector<GroupWeights<Weight>> edge_parts;
  if (!view.edges.empty()) {
    edge_parts = ScanSide(
        "agg/edges_scan", std::span<const EdgeId>(view.edges), graph.edge_presence(),
        view.times, distinct, static_codes, grouping.dense_edges, cells * cells,
        [&](EdgeId e) -> std::uint64_t {
          return codes.At(endpoints[e].first) * cells + codes.At(endpoints[e].second);
        },
        [&](EdgeId e, TimeId t) -> std::optional<std::uint64_t> {
          const std::uint32_t src = codes.At(endpoints[e].first, t);
          const std::uint32_t dst = codes.At(endpoints[e].second, t);
          if (src == NodeCodes::kHidden || dst == NodeCodes::kHidden) return std::nullopt;
          return src * cells + dst;
        });
    merge_nanos += MergeSide("agg/edges_merge", edge_parts, grouping.dense_edges,
                             [&](std::uint64_t code, Weight w) {
                               result.AddEdgeWeight(codes.Tuple(code / cells),
                                                    codes.Tuple(code % cells), w);
                             });
  }

  internal_counters::AddAggregation(view.nodes.size() + view.edges.size(),
                                    node_parts.size() + edge_parts.size(), merge_nanos);
  return result;
}

}  // namespace

void AggregateGraph::AddNodeWeight(const AttrTuple& tuple, Weight weight) {
  nodes_[tuple] += weight;
}

void AggregateGraph::AddEdgeWeight(const AttrTuple& src, const AttrTuple& dst,
                                   Weight weight) {
  edges_[AttrTuplePair{src, dst}] += weight;
}

Weight AggregateGraph::NodeWeight(const AttrTuple& tuple) const {
  auto it = nodes_.find(tuple);
  return it == nodes_.end() ? 0 : it->second;
}

Weight AggregateGraph::EdgeWeight(const AttrTuple& src, const AttrTuple& dst) const {
  auto it = edges_.find(AttrTuplePair{src, dst});
  return it == edges_.end() ? 0 : it->second;
}

Weight AggregateGraph::TotalNodeWeight() const {
  Weight total = 0;
  for (const auto& [tuple, weight] : nodes_) total += weight;
  return total;
}

Weight AggregateGraph::TotalEdgeWeight() const {
  Weight total = 0;
  for (const auto& [pair, weight] : edges_) total += weight;
  return total;
}

AttrTuple TupleAt(const TemporalGraph& graph, std::span<const AttrRef> attrs, NodeId n,
                  TimeId t) {
  AttrTuple tuple;
  for (const AttrRef& ref : attrs) tuple.Append(graph.ValueCodeAt(ref, n, t));
  return tuple;
}

AggregateGraph Aggregate(const TemporalGraph& graph, const GraphView& view,
                         std::span<const AttrRef> attrs,
                         const AggregationOptions& options) {
  GT_CHECK(!attrs.empty()) << "aggregation needs at least one attribute";
  return AggregateImpl(graph, view, attrs, options);
}

AggregateGraph Aggregate(const TemporalGraph& graph, const GraphView& view,
                         std::span<const AttrRef> attrs, AggregationSemantics semantics) {
  AggregationOptions options;
  options.semantics = semantics;
  return Aggregate(graph, view, attrs, options);
}

GroupingResolution ResolveGrouping(const TemporalGraph& graph,
                                   std::span<const AttrRef> attrs,
                                   GroupingStrategy requested) {
  GroupingResolution resolution;
  if (requested == GroupingStrategy::kHash) return resolution;
  std::optional<internal_grouping::DensePacker> packer =
      internal_grouping::DensePacker::Create(graph, attrs, kDenseNodeCellsMax);
  resolution.dense_nodes = packer.has_value();
  resolution.dense_edges = resolution.dense_nodes &&
                           packer->cells() * packer->cells() <= kDenseEdgePairsMax;
  return resolution;
}

namespace {

/// Canonical ordering of tuples by code sequence (size first).
bool TupleLessThan(const AttrTuple& a, const AttrTuple& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

}  // namespace

AggregateGraph SymmetrizeAggregate(const AggregateGraph& aggregate) {
  AggregateGraph result;
  for (const auto& [tuple, weight] : aggregate.nodes()) {
    result.AddNodeWeight(tuple, weight);
  }
  for (const auto& [pair, weight] : aggregate.edges()) {
    if (TupleLessThan(pair.dst, pair.src)) {
      result.AddEdgeWeight(pair.dst, pair.src, weight);
    } else {
      result.AddEdgeWeight(pair.src, pair.dst, weight);
    }
  }
  return result;
}

std::string FormatTuple(const TemporalGraph& graph, std::span<const AttrRef> attrs,
                        const AttrTuple& tuple) {
  GT_CHECK_EQ(attrs.size(), tuple.size()) << "tuple arity mismatch";
  std::string out;
  for (std::size_t i = 0; i < tuple.size(); ++i) {
    if (i != 0) out += ",";
    if (tuple[i] == kNoValue) {
      out += "∅";
    } else {
      out += graph.ValueName(attrs[i], tuple[i]);
    }
  }
  return out;
}

std::vector<AttrRef> ResolveAttributes(const TemporalGraph& graph,
                                       std::initializer_list<std::string_view> names) {
  std::vector<AttrRef> refs;
  refs.reserve(names.size());
  for (std::string_view name : names) {
    std::optional<AttrRef> ref = graph.FindAttribute(name);
    GT_CHECK(ref.has_value()) << "unknown attribute: " << name;
    refs.push_back(*ref);
  }
  return refs;
}

std::vector<AttrRef> ResolveAttributes(const TemporalGraph& graph,
                                       const std::vector<std::string>& names) {
  std::vector<AttrRef> refs;
  refs.reserve(names.size());
  for (const std::string& name : names) {
    std::optional<AttrRef> ref = graph.FindAttribute(name);
    GT_CHECK(ref.has_value()) << "unknown attribute: " << name;
    refs.push_back(*ref);
  }
  return refs;
}

}  // namespace graphtempo
