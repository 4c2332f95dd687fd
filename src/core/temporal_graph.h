#ifndef GRAPHTEMPO_CORE_TEMPORAL_GRAPH_H_
#define GRAPHTEMPO_CORE_TEMPORAL_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/interval.h"
#include "core/presence_index.h"
#include "storage/attribute_table.h"

/// \file
/// `TemporalGraph`: the temporal attributed graph G(V, E, τu, τe, A) of
/// Definition 2.1, stored exactly as the paper's Section 4 prescribes:
///
///   * **V** — node presence (τu) as one bitset over nodes per time point,
///   * **E** — edge presence (τe) as one bitset over edges per time point,
///   * **S** — one column per static attribute,
///   * **A_i** — one code array over nodes per time point, per time-varying
///     attribute.
///
/// Presence has one store, the column-major `PresenceIndex` pair: point
/// reads test a column bit, and the per-entity scans read the columns a
/// 64-entity word at a time (core/grouping_internal.h).
///
/// Nodes and edges have dense integer ids. Node labels (external string ids)
/// are kept for I/O and examples; all algorithms work on ids. Edges are
/// directed ordered pairs, deduplicated — multi-edges within a time point do
/// not occur (matching both evaluation datasets of the paper).

namespace graphtempo {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

/// Reference to a node attribute of a graph: which table it lives in plus
/// its index within that table. Obtained from `TemporalGraph::FindAttribute`.
struct AttrRef {
  enum class Kind : std::uint8_t { kStatic, kTimeVarying };

  Kind kind = Kind::kStatic;
  std::uint32_t index = 0;

  bool operator==(const AttrRef&) const = default;
};

/// Reference to an edge attribute. Edge attributes extend the paper's model
/// the way its Section 2.2 anticipates ("other aggregations may be supported,
/// if edges are attributed as well"): they carry the measures that
/// `core/measures.h` aggregates (SUM/MIN/MAX/AVG) beyond COUNT.
struct EdgeAttrRef {
  enum class Kind : std::uint8_t { kStatic, kTimeVarying };

  Kind kind = Kind::kStatic;
  std::uint32_t index = 0;

  bool operator==(const EdgeAttrRef&) const = default;
};

class TemporalGraph {
 public:
  /// Creates a graph over the given ordered time domain. Labels are, e.g.,
  /// years ("2000" … "2020") or months ("May" … "Oct").
  explicit TemporalGraph(std::vector<std::string> time_labels);

  TemporalGraph(const TemporalGraph&) = delete;
  TemporalGraph& operator=(const TemporalGraph&) = delete;
  TemporalGraph(TemporalGraph&&) = default;
  TemporalGraph& operator=(TemporalGraph&&) = default;

  // --- Time domain -----------------------------------------------------------

  std::size_t num_times() const { return time_labels_.size(); }
  const std::string& time_label(TimeId t) const;
  std::optional<TimeId> FindTime(std::string_view label) const;

  /// Appends a new (initially empty) time point at the end of the domain and
  /// returns its id — the streaming entry point of an interactive deployment:
  /// ingest the new snapshot's edges, then analyze across the grown domain.
  /// IntervalSets created before the append refer to the old, smaller domain
  /// and must be rebuilt (operators GT_CHECK the domain size). Costs
  /// O(|V| + |E|) per append for the new presence columns and one new code
  /// array per time-varying attribute, whatever the length of the history.
  TimeId AppendTimePoint(std::string_view label);

  // --- Construction ----------------------------------------------------------

  /// Adds a node with a unique label; returns its id. GT_CHECKs uniqueness.
  NodeId AddNode(std::string_view label);

  /// Returns the node id for `label`, adding the node if absent.
  NodeId GetOrAddNode(std::string_view label);

  /// Adds the directed edge (src, dst); returns its id. If the edge already
  /// exists its existing id is returned (edges are deduplicated; presence is
  /// what varies with time).
  EdgeId GetOrAddEdge(NodeId src, NodeId dst);

  /// Marks node `n` as existing at time `t`.
  void SetNodePresent(NodeId n, TimeId t);

  /// Marks edge `e` as existing at time `t`. Also marks both endpoints
  /// present at `t`, maintaining the invariant that an edge never exists
  /// without its endpoints.
  void SetEdgePresent(EdgeId e, TimeId t);

  /// Declares a static attribute (e.g. "gender"); returns its index.
  std::uint32_t AddStaticAttribute(std::string name);

  /// Declares a time-varying attribute (e.g. "publications"); returns its index.
  std::uint32_t AddTimeVaryingAttribute(std::string name);

  /// Assigns static attribute `attr` of node `n`.
  void SetStaticValue(std::uint32_t attr, NodeId n, std::string_view value);

  /// Assigns time-varying attribute `attr` of node `n` at time `t`.
  void SetTimeVaryingValue(std::uint32_t attr, NodeId n, TimeId t, std::string_view value);

  /// Declares a static edge attribute (e.g. "channel"); returns its index.
  std::uint32_t AddStaticEdgeAttribute(std::string name);

  /// Declares a time-varying edge attribute (e.g. "duration"); returns its index.
  std::uint32_t AddTimeVaryingEdgeAttribute(std::string name);

  /// Assigns static edge attribute `attr` of edge `e`.
  void SetStaticEdgeValue(std::uint32_t attr, EdgeId e, std::string_view value);

  /// Assigns time-varying edge attribute `attr` of edge `e` at time `t`.
  void SetTimeVaryingEdgeValue(std::uint32_t attr, EdgeId e, TimeId t,
                               std::string_view value);

  // --- Lookup ----------------------------------------------------------------

  std::size_t num_nodes() const { return node_labels_.size(); }
  std::size_t num_edges() const { return edge_endpoints_.size(); }

  std::optional<NodeId> FindNode(std::string_view label) const;
  const std::string& node_label(NodeId n) const;

  std::optional<EdgeId> FindEdge(NodeId src, NodeId dst) const;
  std::pair<NodeId, NodeId> edge(EdgeId e) const;

  /// Every edge's (src, dst), indexed by EdgeId: unchecked bulk access for
  /// scans that visit many edges.
  std::span<const std::pair<NodeId, NodeId>> edge_endpoints() const {
    return edge_endpoints_;
  }

  bool NodePresentAt(NodeId n, TimeId t) const {
    return node_index_cols_.Column(t).Test(n);
  }
  bool EdgePresentAt(EdgeId e, TimeId t) const {
    return edge_index_cols_.Column(t).Test(e);
  }

  /// τu(n) / τe(e) as interval sets.
  IntervalSet NodeTimes(NodeId n) const;
  IntervalSet EdgeTimes(EdgeId e) const;

  /// The presence store: one bitset over entities per time point, plus the
  /// sparse-table interval index (docs/KERNELS.md). Every reader of presence
  /// goes through it; every mutation above maintains it incrementally.
  const PresenceIndex& node_presence_index() const { return node_index_cols_; }
  const PresenceIndex& edge_presence_index() const { return edge_index_cols_; }

  /// Looks up an attribute by name across both tables.
  std::optional<AttrRef> FindAttribute(std::string_view name) const;

  std::size_t num_static_attributes() const { return static_attrs_.size(); }
  std::size_t num_time_varying_attributes() const { return varying_attrs_.size(); }

  const StaticColumn& static_attribute(std::uint32_t index) const;
  const TimeVaryingColumn& time_varying_attribute(std::uint32_t index) const;

  /// The attribute's display name regardless of kind.
  const std::string& attribute_name(AttrRef ref) const;

  /// Dictionary-encoded value of attribute `ref` for node `n` at time `t`
  /// (`t` is ignored for static attributes). kNoValue if unassigned.
  AttrValueId ValueCodeAt(AttrRef ref, NodeId n, TimeId t) const;

  /// Human-readable value for a code of attribute `ref`.
  const std::string& ValueName(AttrRef ref, AttrValueId code) const;

  /// Dictionary code of `value` under attribute `ref`, if any value of that
  /// spelling has been stored.
  std::optional<AttrValueId> FindValueCode(AttrRef ref, std::string_view value) const;

  /// Looks up an edge attribute by name across both edge tables.
  std::optional<EdgeAttrRef> FindEdgeAttribute(std::string_view name) const;

  std::size_t num_static_edge_attributes() const { return static_edge_attrs_.size(); }
  std::size_t num_time_varying_edge_attributes() const {
    return varying_edge_attrs_.size();
  }

  const StaticColumn& static_edge_attribute(std::uint32_t index) const;
  const TimeVaryingColumn& time_varying_edge_attribute(std::uint32_t index) const;

  /// The edge attribute's display name regardless of kind.
  const std::string& edge_attribute_name(EdgeAttrRef ref) const;

  /// Dictionary-encoded value of edge attribute `ref` for edge `e` at time
  /// `t` (`t` ignored for static). kNoValue if unassigned.
  AttrValueId EdgeValueCodeAt(EdgeAttrRef ref, EdgeId e, TimeId t) const;

  /// Human-readable value for a code of edge attribute `ref`.
  const std::string& EdgeValueName(EdgeAttrRef ref, AttrValueId code) const;

  // --- Statistics -------------------------------------------------------------

  /// Number of nodes / edges existing at time `t` (a column popcount).
  std::size_t NodesAt(TimeId t) const;
  std::size_t EdgesAt(TimeId t) const;

  // --- Mutation tracking ------------------------------------------------------

  /// Monotonic counter bumped by every mutating call (AppendTimePoint,
  /// AddNode/GetOrAddEdge, SetNodePresent/SetEdgePresent, attribute
  /// declarations and assignments). Derived caches — most importantly the
  /// query engine's fingerprint-keyed result cache (docs/ENGINE.md) — compare
  /// the generation they were built at against the current one to decide
  /// whether their entries are still valid. Mutations follow the same
  /// single-writer contract as the rest of the class: no concurrent readers
  /// while mutating (the query engine brokers this with a readers/writer
  /// lock), so a plain counter suffices.
  std::uint64_t mutation_generation() const { return mutation_generation_; }

  /// Generation at which the *data of time point `t`* last changed. Only
  /// mutations that can alter an existing query answer mark a time point:
  ///
  ///   * `SetNodePresent` / `SetEdgePresent` and time-varying attribute
  ///     writes mark exactly the written time point;
  ///   * static attribute writes mark every time point (the value is visible
  ///     wherever the entity exists);
  ///   * `AppendTimePoint` stamps only the *new* point — existing points are
  ///     untouched, which is what makes append-only ingestion cheap for
  ///     per-entry cache validity (docs/ENGINE.md §3);
  ///   * structural additions (AddNode, GetOrAddEdge, attribute
  ///     declarations) are **time-neutral**: they bump
  ///     `mutation_generation()` but mark nothing, because a new entity is
  ///     absent from every time point and a new attribute is referenced by
  ///     no existing query.
  std::uint64_t time_mutation_generation(TimeId t) const;

  /// True iff no time point of `interval` was data-mutated after
  /// `generation` — i.e. a result computed at `generation` that depends only
  /// on the data of those time points is still valid. `interval` may come
  /// from a smaller (pre-append) domain; appended points never affect it.
  bool IntervalUnchangedSince(const IntervalSet& interval,
                              std::uint64_t generation) const;

 private:
  /// Snapshot (de)serialization (core/graph_snapshot.cc) reads and restores
  /// the private representation directly — including the mutation
  /// generations, which have no public setter by design.
  friend struct GraphSnapshotAccess;

  // Key for the (src, dst) → EdgeId map.
  static std::uint64_t EdgeKey(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  /// Records that the data of time point `t` changed in the current
  /// (already bumped) mutation generation.
  void MarkTimeMutated(TimeId t);

  /// Records a mutation whose effect is not confined to one time point
  /// (static attribute writes).
  void MarkAllTimesMutated();

  std::vector<std::string> time_labels_;
  std::unordered_map<std::string, TimeId> time_index_;
  /// Per-time-point last-data-mutation generations (see
  /// `time_mutation_generation`); always sized `num_times()`.
  std::vector<std::uint64_t> time_mutation_generations_;

  std::vector<std::string> node_labels_;
  std::unordered_map<std::string, NodeId> node_index_;
  PresenceIndex node_index_cols_;

  std::vector<std::pair<NodeId, NodeId>> edge_endpoints_;
  std::unordered_map<std::uint64_t, EdgeId> edge_index_;
  PresenceIndex edge_index_cols_;

  std::vector<StaticColumn> static_attrs_;
  std::vector<TimeVaryingColumn> varying_attrs_;
  std::vector<StaticColumn> static_edge_attrs_;
  std::vector<TimeVaryingColumn> varying_edge_attrs_;

  std::uint64_t mutation_generation_ = 0;
};

}  // namespace graphtempo

#endif  // GRAPHTEMPO_CORE_TEMPORAL_GRAPH_H_
