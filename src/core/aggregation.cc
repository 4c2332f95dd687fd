#include "core/aggregation.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

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
/// its number of appearances at `times` (the view interval) under ALL.
/// Otherwise every appearance at `times` reads `code_at(entity, t)`
/// (nullopt: hidden by the filter); ALL counts every appearance, DIST each
/// distinct code of the entity once. Appearances come off the presence
/// columns a word of view entities at a time (SlotColumns). Entities are
/// independent, so chunking over the entity list is safe.
template <typename Entity, typename CodeOf, typename CodeAt>
std::vector<GroupWeights<Weight>> ScanSide(const char* span_name,
                                           std::span<const Entity> entities,
                                           const PresenceIndex& presence,
                                           std::span<const TimeId> times, bool distinct,
                                           bool static_codes, bool dense,
                                           std::uint64_t codes, const CodeOf& code_of,
                                           const CodeAt& code_at) {
  GT_SPAN(span_name, {{"rows", entities.size()}, {"dense", dense ? 1u : 0u}});
  auto scan_chunk = [&](std::size_t begin, std::size_t end, const auto& cell) {
    if (static_codes && distinct) {
      // No presence read: every view entity appears in the view interval.
      for (std::size_t i = begin; i < end; ++i) ++cell(code_of(entities[i]));
      return;
    }
    const internal_grouping::SlotColumns columns(presence, times);
    if (static_codes) {
      std::array<Weight, 64> weights;
      internal_grouping::ForEachWordOf(
          entities, begin, end, [&](std::size_t w, std::uint64_t chosen) {
            weights.fill(0);
            columns.ForEachAppearance(w, chosen,
                                      [&](std::size_t i, std::size_t) { ++weights[i]; });
            for (std::uint64_t bits = chosen; bits != 0; bits &= bits - 1) {
              const std::size_t i = static_cast<std::size_t>(std::countr_zero(bits));
              if (weights[i] == 0) continue;
              cell(code_of(static_cast<Entity>(w * 64 + i))) += weights[i];
            }
          });
      return;
    }
    internal_grouping::EntityCodes<internal_grouping::MetCode> met(times.size());
    internal_grouping::ForEachWordOf(
        entities, begin, end, [&](std::size_t w, std::uint64_t chosen) {
          met.Clear();
          columns.ForEachAppearance(w, chosen, [&](std::size_t i, std::size_t slot) {
            const std::optional<std::uint64_t> code =
                code_at(static_cast<Entity>(w * 64 + i), times[slot]);
            if (!code.has_value()) return;
            if (!distinct || met.FindOrAdd(i, *code).second) ++cell(*code);
          });
        });
  };
  return internal_grouping::ScanChunks<Weight>(
      ParallelPartition(entities.size(), internal_grouping::kGroupMinPerChunk,
                        /*alignment=*/1),
      dense, codes, scan_chunk);
}

/// Merges one side's chunk tables in ascending chunk order and returns its
/// groups as code-ordered rows. Adds the merge time in nanoseconds to
/// `merge_nanos`.
std::vector<GroupRow<Weight>> MergeSide(const char* span_name,
                                        std::vector<GroupWeights<Weight>>& parts,
                                        bool dense, std::uint64_t* merge_nanos) {
  GT_SPAN(span_name, {{"chunks", parts.size()}, {"dense", dense ? 1u : 0u}});
  Stopwatch merge_watch;
  merge_watch.Start();
  std::vector<GroupRow<Weight>> rows = internal_grouping::MergeChunks(parts).Rows();
  internal_counters::AddGroupingPath(dense ? 1 : 0, dense ? 0 : 1);
  *merge_nanos += static_cast<std::uint64_t>(merge_watch.ElapsedMicros()) * 1000u;
  return rows;
}

/// Runs Algorithm 2 on group codes (NodeCodes, shared with the evolution
/// aggregation): each side scans into per-chunk tables on the pool — flat
/// arrays when ResolveGrouping says dense, hash maps on the code otherwise —
/// merges them in ascending chunk order, and appends the groups to the
/// answer's code-ordered rows, which decode through the codes' codec. The
/// answer is the same at any thread count and under either grouping.
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
  view.times.ForEach([&](TimeId t) { times.push_back(t); });
  if (!static_codes && times.empty()) return AggregateGraph{};  // no appearance
  const std::span<const TimeId> code_times =
      static_codes ? std::span<const TimeId>() : std::span<const TimeId>(times);
  const NodeCodes codes(graph, attrs, code_times, options.filter, "agg/codes");
  const std::uint64_t cells = codes.cells();
  const std::span<const std::pair<NodeId, NodeId>> endpoints = graph.edge_endpoints();

  std::vector<GroupWeights<Weight>> node_parts = ScanSide(
      "agg/nodes_scan", std::span<const NodeId>(view.nodes), graph.node_presence_index(),
      times, distinct, static_codes, grouping.dense_nodes, cells,
      [&](NodeId n) -> std::uint64_t { return codes.At(n); },
      [&](NodeId n, TimeId t) -> std::optional<std::uint64_t> {
        const std::uint32_t code = codes.At(n, t);
        if (code == NodeCodes::kHidden) return std::nullopt;
        return code;
      });
  std::uint64_t merge_nanos = 0;
  std::vector<GroupRow<Weight>> node_rows =
      MergeSide("agg/nodes_merge", node_parts, grouping.dense_nodes, &merge_nanos);

  // Edge code: code(src) · cells + code(dst). A view without edges skips
  // the side: even an empty scan would zero a dense table of cells² weights.
  std::vector<GroupWeights<Weight>> edge_parts;
  std::vector<GroupRow<Weight>> edge_rows;
  if (!view.edges.empty()) {
    edge_parts = ScanSide(
        "agg/edges_scan", std::span<const EdgeId>(view.edges), graph.edge_presence_index(),
        times, distinct, static_codes, grouping.dense_edges, cells * cells,
        [&](EdgeId e) -> std::uint64_t {
          return codes.At(endpoints[e].first) * cells + codes.At(endpoints[e].second);
        },
        [&](EdgeId e, TimeId t) -> std::optional<std::uint64_t> {
          const std::uint32_t src = codes.At(endpoints[e].first, t);
          const std::uint32_t dst = codes.At(endpoints[e].second, t);
          if (src == NodeCodes::kHidden || dst == NodeCodes::kHidden) return std::nullopt;
          return src * cells + dst;
        });
    edge_rows =
        MergeSide("agg/edges_merge", edge_parts, grouping.dense_edges, &merge_nanos);
  }

  internal_counters::AddAggregation(view.nodes.size() + view.edges.size(),
                                    node_parts.size() + edge_parts.size(), merge_nanos);
  return AggregateGraph(codes.codec(), std::move(node_rows), std::move(edge_rows));
}

}  // namespace

std::optional<TupleCodec> TupleCodec::Packed(const TemporalGraph& graph,
                                             std::span<const AttrRef> attrs,
                                             std::uint64_t max_cells) {
  std::vector<std::uint64_t> radices;
  for (const AttrRef& ref : attrs) {
    const Dictionary& dict = ref.kind == AttrRef::Kind::kStatic
                                 ? graph.static_attribute(ref.index).dictionary()
                                 : graph.time_varying_attribute(ref.index).dictionary();
    radices.push_back(dict.size() + 1);  // +1: the kNoValue digit
  }
  return Packed(radices, max_cells);
}

std::optional<TupleCodec> TupleCodec::Packed(std::span<const std::uint64_t> radices,
                                             std::uint64_t max_cells) {
  GT_CHECK_LE(radices.size(), AttrTuple::kMaxAttrs) << "too many aggregation attributes";
  TupleCodec codec;
  for (std::uint64_t radix : radices) {
    if (radix == 0 || codec.cells_ > max_cells / radix) return std::nullopt;
    codec.cells_ *= radix;
    codec.radices_[codec.arity_++] = radix;
  }
  return codec;
}

TupleCodec TupleCodec::Numbered(std::vector<AttrTuple> tuples) {
  std::sort(tuples.begin(), tuples.end());
  tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
  TupleCodec codec;
  codec.packed_ = false;
  codec.arity_ = static_cast<std::uint8_t>(tuples.empty() ? 0 : tuples[0].size());
  codec.cells_ = tuples.size();
  codec.tuples_ = std::move(tuples);
  return codec;
}

AttrTuple TupleCodec::Decode(std::uint64_t code) const {
  GT_DCHECK(code < cells_);
  if (!packed_) return tuples_[code];
  std::array<AttrValueId, AttrTuple::kMaxAttrs> values = {};
  for (std::size_t i = arity_; i-- > 0;) {
    const std::uint64_t digit = code % radices_[i];
    code /= radices_[i];
    values[i] = digit == radices_[i] - 1 ? kNoValue : static_cast<AttrValueId>(digit);
  }
  AttrTuple tuple;
  for (std::size_t i = 0; i < arity_; ++i) tuple.Append(values[i]);
  return tuple;
}

std::optional<std::uint64_t> TupleCodec::Encode(const AttrTuple& tuple) const {
  if (tuple.size() != arity_) return std::nullopt;
  if (!packed_) {
    auto it = std::lower_bound(tuples_.begin(), tuples_.end(), tuple);
    if (it == tuples_.end() || !(*it == tuple)) return std::nullopt;
    return static_cast<std::uint64_t>(it - tuples_.begin());
  }
  std::uint64_t code = 0;
  for (std::size_t i = 0; i < arity_; ++i) {
    if (tuple[i] != kNoValue && tuple[i] >= radices_[i] - 1) return std::nullopt;
    code = code * radices_[i] + Digit(tuple[i], radices_[i]);
  }
  return code;
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
  const std::optional<TupleCodec> packer =
      TupleCodec::Packed(graph, attrs, kDenseNodeCellsMax);
  resolution.dense_nodes = packer.has_value();
  resolution.dense_edges = resolution.dense_nodes &&
                           packer->cells() * packer->cells() <= kDenseEdgePairsMax;
  return resolution;
}

AggregateGraph SymmetrizeAggregate(const AggregateGraph& aggregate) {
  // Code order is tuple order, so the canonical orientation is the lower
  // code first.
  const std::uint64_t cells = aggregate.codec().cells();
  GroupWeights<Weight> edges =
      internal_grouping::SumTable<Weight>(cells * cells, aggregate.EdgeCount());
  for (const GroupRow<Weight>& row : aggregate.edges()) {
    const std::uint64_t src = row.code / cells;
    const std::uint64_t dst = row.code % cells;
    edges[dst < src ? dst * cells + src : row.code] += row.weight;
  }
  std::vector<GroupRow<Weight>> nodes(aggregate.nodes().begin(), aggregate.nodes().end());
  return AggregateGraph(aggregate.codec(), std::move(nodes), edges.Rows());
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
