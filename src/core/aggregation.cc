#include "core/aggregation.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "accel/backend.h"
#include "core/grouping_internal.h"
#include "core/stats.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace graphtempo {

namespace {

using internal_grouping::DensePacker;

/// Entities per chunk for the parallel Algorithm 2 paths. Each entity costs
/// an attribute lookup (or several) plus hash-map updates, so chunks earn
/// their dispatch overhead much earlier than the raw presence scans of the
/// operators (whose default is 2048).
constexpr std::size_t kAggMinPerChunk = 512;

/// Adds every node/edge weight of `src` into `dst`.
void MergeInto(AggregateGraph* dst, const AggregateGraph& src) {
  for (const auto& [tuple, weight] : src.nodes()) dst->AddNodeWeight(tuple, weight);
  for (const auto& [pair, weight] : src.edges()) {
    dst->AddEdgeWeight(pair.src, pair.dst, weight);
  }
}

bool AllStatic(std::span<const AttrRef> attrs) {
  return std::all_of(attrs.begin(), attrs.end(), [](const AttrRef& ref) {
    return ref.kind == AttrRef::Kind::kStatic;
  });
}

/// Static attributes do not depend on time; evaluate once per node.
AttrTuple StaticTuple(const TemporalGraph& graph, std::span<const AttrRef> attrs,
                      NodeId n) {
  AttrTuple tuple;
  for (const AttrRef& ref : attrs) {
    tuple.Append(graph.static_attribute(ref.index).CodeAt(n));
  }
  return tuple;
}

/// Small per-entity "seen tuples" set. Entities carry very few distinct
/// tuples across an interval (bounded by interval length), so linear probing
/// over a stack vector beats a hash set.
class SeenTuples {
 public:
  void Clear() { tuples_.clear(); }

  /// Returns true if `tuple` was not seen before (and records it).
  bool Insert(const AttrTuple& tuple) {
    if (std::find(tuples_.begin(), tuples_.end(), tuple) != tuples_.end()) return false;
    tuples_.push_back(tuple);
    return true;
  }

 private:
  std::vector<AttrTuple> tuples_;
};

class SeenTuplePairs {
 public:
  void Clear() { pairs_.clear(); }

  bool Insert(const AttrTuplePair& pair) {
    if (std::find(pairs_.begin(), pairs_.end(), pair) != pairs_.end()) return false;
    pairs_.push_back(pair);
    return true;
  }

 private:
  std::vector<AttrTuplePair> pairs_;
};

// --- chunk bodies (sink-templated) ---------------------------------------------
//
// The per-entity logic of Algorithm 2, written once and instantiated against
// two sinks: the hash-map sink (AggregateGraph partials) and the dense flat
// array sink below. `add_node(tuple, w)` / `add_edge(src, dst, w)` are the
// only output operations, so both grouping strategies share the exact same
// appearance walk and therefore count the exact same things.

/// General path of Algorithm 2 over a node chunk: unpivot each node over its
/// appearance times, deduplicate per entity for DIST. Entities are
/// independent — SeenTuples never crosses entity boundaries — so chunking
/// over the node range is safe.
template <typename AddNode>
void GeneralNodeChunk(const TemporalGraph& graph, const GraphView& view,
                      std::span<const AttrRef> attrs, const AggregationOptions& options,
                      std::size_t begin, std::size_t end, const AddNode& add_node) {
  const bool distinct = options.semantics == AggregationSemantics::kDistinct;
  const NodeTimeFilter* filter = options.filter;
  SeenTuples seen;  // chunk-local scratch, reused across the entity range
  for (std::size_t i = begin; i < end; ++i) {
    NodeId n = view.nodes[i];
    seen.Clear();
    graph.node_presence().ForEachSetBitMasked(
        n, view.times.bits(), [&](std::size_t t_raw) {
          TimeId t = static_cast<TimeId>(t_raw);
          if (filter != nullptr && !(*filter)(n, t)) return;
          AttrTuple tuple = TupleAt(graph, attrs, n, t);
          if (distinct) {
            if (seen.Insert(tuple)) add_node(tuple, Weight{1});
          } else {
            add_node(tuple, Weight{1});
          }
        });
  }
}

template <typename AddEdge>
void GeneralEdgeChunk(const TemporalGraph& graph, const GraphView& view,
                      std::span<const AttrRef> attrs, const AggregationOptions& options,
                      std::size_t begin, std::size_t end, const AddEdge& add_edge) {
  const bool distinct = options.semantics == AggregationSemantics::kDistinct;
  const NodeTimeFilter* filter = options.filter;
  SeenTuplePairs seen_pairs;
  for (std::size_t i = begin; i < end; ++i) {
    EdgeId e = view.edges[i];
    seen_pairs.Clear();
    auto [src, dst] = graph.edge(e);
    graph.edge_presence().ForEachSetBitMasked(
        e, view.times.bits(), [&](std::size_t t_raw) {
          TimeId t = static_cast<TimeId>(t_raw);
          if (filter != nullptr && (!(*filter)(src, t) || !(*filter)(dst, t))) return;
          AttrTuplePair pair{TupleAt(graph, attrs, src, t),
                             TupleAt(graph, attrs, dst, t)};
          if (distinct) {
            if (seen_pairs.Insert(pair)) add_edge(pair.src, pair.dst, Weight{1});
          } else {
            add_edge(pair.src, pair.dst, Weight{1});
          }
        });
  }
}

/// Section 4.2 fast path over a node chunk: all aggregation attributes static
/// and no filter. DIST never looks at time at all; ALL weights each entity by
/// the popcount of its presence row under the view interval.
template <typename AddNode>
void StaticNodeChunk(const TemporalGraph& graph, const GraphView& view,
                     std::span<const AttrRef> attrs, AggregationSemantics semantics,
                     std::size_t begin, std::size_t end, const AddNode& add_node) {
  const bool distinct = semantics == AggregationSemantics::kDistinct;
  // The interval mask is chunk-invariant: hoist the backend dispatch and the
  // mask words out of the row loop and call the masked popcount-aggregate
  // kernel directly per row.
  const accel::KernelBackend& backend = accel::ActiveBackend();
  const BitMatrix& presence = graph.node_presence();
  const std::uint64_t* mask = view.times.bits().words().data();
  const std::size_t mask_words = presence.words_per_row();
  for (std::size_t i = begin; i < end; ++i) {
    NodeId n = view.nodes[i];
    AttrTuple tuple = StaticTuple(graph, attrs, n);
    Weight weight = distinct ? 1
                             : static_cast<Weight>(backend.masked_popcount(
                                   presence.row_words(n), mask, mask_words));
    if (weight > 0) add_node(tuple, weight);
  }
}

template <typename AddEdge>
void StaticEdgeChunk(const TemporalGraph& graph, const GraphView& view,
                     std::span<const AttrRef> attrs, AggregationSemantics semantics,
                     std::size_t begin, std::size_t end, const AddEdge& add_edge) {
  const bool distinct = semantics == AggregationSemantics::kDistinct;
  const accel::KernelBackend& backend = accel::ActiveBackend();
  const BitMatrix& presence = graph.edge_presence();
  const std::uint64_t* mask = view.times.bits().words().data();
  const std::size_t mask_words = presence.words_per_row();
  for (std::size_t i = begin; i < end; ++i) {
    EdgeId e = view.edges[i];
    auto [src, dst] = graph.edge(e);
    AttrTuple src_tuple = StaticTuple(graph, attrs, src);
    AttrTuple dst_tuple = StaticTuple(graph, attrs, dst);
    Weight weight = distinct ? 1
                             : static_cast<Weight>(backend.masked_popcount(
                                   presence.row_words(e), mask, mask_words));
    if (weight > 0) add_edge(src_tuple, dst_tuple, weight);
  }
}

// --- driver ---------------------------------------------------------------------

/// Runs Algorithm 2 with independently chosen node/edge grouping strategies.
///
/// Both strategies chunk the entity ranges onto the shared pool with private
/// per-chunk accumulators and merge in ascending chunk order:
///
///   * hash  — per-chunk AggregateGraph partials, chunk-ordered MergeInto
///     (fixes the map insertion order, so bit-identical at any thread count);
///   * dense — per-chunk flat Weight arrays indexed by packed tuple,
///     elementwise sum, then emission in ascending packed order (a canonical
///     order independent of both thread count and chunking).
///
/// Per-stage counters (rows scanned, chunks, merge time, dense/hash group
/// sizes) feed `GetExecCounters`.
AggregateGraph AggregateImpl(const TemporalGraph& graph, const GraphView& view,
                             std::span<const AttrRef> attrs,
                             const AggregationOptions& options,
                             bool allow_static_path) {
  GT_SPAN("agg/aggregate", {{"nodes", view.nodes.size()},
                            {"edges", view.edges.size()}});
  const bool static_path =
      allow_static_path && options.filter == nullptr && AllStatic(attrs);

  std::optional<DensePacker> packer;
  if (options.grouping != GroupingStrategy::kHash) {
    packer = DensePacker::Create(graph, attrs, kDenseNodeCellsMax);
  }
  const bool dense_nodes = packer.has_value();
  const bool dense_edges =
      dense_nodes && packer->cells() * packer->cells() <= kDenseEdgePairsMax;
  if (options.grouping == GroupingStrategy::kDense) {
    GT_CHECK(dense_nodes && dense_edges)
        << "attribute domain too large for forced dense grouping";
  }

  auto node_chunk = [&](std::size_t begin, std::size_t end, const auto& add_node) {
    if (static_path) {
      StaticNodeChunk(graph, view, attrs, options.semantics, begin, end, add_node);
    } else {
      GeneralNodeChunk(graph, view, attrs, options, begin, end, add_node);
    }
  };
  auto edge_chunk = [&](std::size_t begin, std::size_t end, const auto& add_edge) {
    if (static_path) {
      StaticEdgeChunk(graph, view, attrs, options.semantics, begin, end, add_edge);
    } else {
      GeneralEdgeChunk(graph, view, attrs, options, begin, end, add_edge);
    }
  };

  ParallelPartition node_partition(view.nodes.size(), kAggMinPerChunk,
                                   /*alignment=*/1);
  ParallelPartition edge_partition(view.edges.size(), kAggMinPerChunk,
                                   /*alignment=*/1);

  AggregateGraph result;
  std::uint64_t merge_nanos = 0;

  if (dense_nodes) {
    const std::size_t cells = packer->cells();
    std::vector<std::vector<Weight>> parts(node_partition.num_chunks());
    {
      GT_SPAN("agg/nodes_scan", {{"rows", view.nodes.size()}, {"dense", 1}});
      node_partition.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::vector<Weight>& table = parts[chunk];
        table.assign(cells, 0);
        node_chunk(begin, end, [&](const AttrTuple& tuple, Weight w) {
          table[packer->Pack(tuple)] += w;
        });
      });
    }
    GT_SPAN("agg/nodes_merge", {{"chunks", parts.size()}, {"dense", 1}});
    Stopwatch merge_watch;
    merge_watch.Start();
    std::vector<Weight>& total = parts.front();
    for (std::size_t c = 1; c < parts.size(); ++c) {
      for (std::size_t i = 0; i < cells; ++i) total[i] += parts[c][i];
    }
    for (std::size_t i = 0; i < cells; ++i) {
      if (total[i] != 0) result.AddNodeWeight(packer->Unpack(i), total[i]);
    }
    merge_nanos += static_cast<std::uint64_t>(merge_watch.ElapsedMicros()) * 1000u;
    internal_counters::AddGroupingPath(/*dense=*/1, /*hash=*/0);
  } else {
    std::vector<AggregateGraph> parts(node_partition.num_chunks());
    {
      GT_SPAN("agg/nodes_scan", {{"rows", view.nodes.size()}, {"dense", 0}});
      node_partition.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
        AggregateGraph& out = parts[chunk];
        node_chunk(begin, end, [&](const AttrTuple& tuple, Weight w) {
          out.AddNodeWeight(tuple, w);
        });
      });
    }
    GT_SPAN("agg/nodes_merge", {{"chunks", parts.size()}, {"dense", 0}});
    Stopwatch merge_watch;
    merge_watch.Start();
    result = std::move(parts.front());
    for (std::size_t c = 1; c < parts.size(); ++c) MergeInto(&result, parts[c]);
    merge_nanos += static_cast<std::uint64_t>(merge_watch.ElapsedMicros()) * 1000u;
    internal_counters::AddGroupingPath(/*dense=*/0, /*hash=*/1);
  }

  if (dense_edges) {
    const std::size_t cells = packer->cells();
    const std::size_t pairs = cells * cells;
    std::vector<std::vector<Weight>> parts(edge_partition.num_chunks());
    {
      GT_SPAN("agg/edges_scan", {{"rows", view.edges.size()}, {"dense", 1}});
      edge_partition.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
        std::vector<Weight>& table = parts[chunk];
        table.assign(pairs, 0);
        edge_chunk(begin, end,
                   [&](const AttrTuple& src, const AttrTuple& dst, Weight w) {
                     table[packer->Pack(src) * cells + packer->Pack(dst)] += w;
                   });
      });
    }
    GT_SPAN("agg/edges_merge", {{"chunks", parts.size()}, {"dense", 1}});
    Stopwatch merge_watch;
    merge_watch.Start();
    std::vector<Weight>& total = parts.front();
    for (std::size_t c = 1; c < parts.size(); ++c) {
      for (std::size_t i = 0; i < pairs; ++i) total[i] += parts[c][i];
    }
    for (std::size_t i = 0; i < pairs; ++i) {
      if (total[i] != 0) {
        result.AddEdgeWeight(packer->Unpack(i / cells), packer->Unpack(i % cells),
                             total[i]);
      }
    }
    merge_nanos += static_cast<std::uint64_t>(merge_watch.ElapsedMicros()) * 1000u;
    internal_counters::AddGroupingPath(/*dense=*/1, /*hash=*/0);
  } else {
    std::vector<AggregateGraph> parts(edge_partition.num_chunks());
    {
      GT_SPAN("agg/edges_scan", {{"rows", view.edges.size()}, {"dense", 0}});
      edge_partition.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
        AggregateGraph& out = parts[chunk];
        edge_chunk(begin, end,
                   [&](const AttrTuple& src, const AttrTuple& dst, Weight w) {
                     out.AddEdgeWeight(src, dst, w);
                   });
      });
    }
    GT_SPAN("agg/edges_merge", {{"chunks", parts.size()}, {"dense", 0}});
    Stopwatch merge_watch;
    merge_watch.Start();
    for (const AggregateGraph& part : parts) MergeInto(&result, part);
    merge_nanos += static_cast<std::uint64_t>(merge_watch.ElapsedMicros()) * 1000u;
    internal_counters::AddGroupingPath(/*dense=*/0, /*hash=*/1);
  }

  internal_counters::AddAggregation(
      view.nodes.size() + view.edges.size(),
      node_partition.num_chunks() + edge_partition.num_chunks(), merge_nanos);
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
  return AggregateImpl(graph, view, attrs, options, /*allow_static_path=*/true);
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
  std::optional<DensePacker> packer =
      DensePacker::Create(graph, attrs, kDenseNodeCellsMax);
  resolution.dense_nodes = packer.has_value();
  resolution.dense_edges = resolution.dense_nodes &&
                           packer->cells() * packer->cells() <= kDenseEdgePairsMax;
  return resolution;
}

AggregateGraph AggregateGeneralPath(const TemporalGraph& graph, const GraphView& view,
                                    std::span<const AttrRef> attrs,
                                    const AggregationOptions& options) {
  GT_CHECK(!attrs.empty()) << "aggregation needs at least one attribute";
  AggregationOptions reference = options;
  reference.grouping = GroupingStrategy::kHash;  // the reference never hashes densely
  return AggregateImpl(graph, view, attrs, reference, /*allow_static_path=*/false);
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
