#ifndef GRAPHTEMPO_CORE_AGGREGATION_H_
#define GRAPHTEMPO_CORE_AGGREGATION_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/operators.h"
#include "core/temporal_graph.h"
#include "util/check.h"

/// \file
/// Graph aggregation (Definition 2.6, Algorithm 2).
///
/// Aggregation groups the nodes of a graph (view) by the values of one or
/// more attributes; each distinct value tuple becomes an aggregate node, and
/// an aggregate edge (a', a'') exists when some original edge connects nodes
/// carrying those tuples. Weights are COUNTs, under two semantics:
///
///   * DIST — every (entity, tuple) combination counts once, regardless of how
///     many time points it appears at;
///   * ALL  — every (entity, time) appearance counts.
///
/// On a single time point the two coincide (paper, Fig 3). The implementation
/// follows Algorithm 2 on per-node group codes plus the Section 4.2
/// optimization: when every aggregation attribute is static (and no filter
/// applies), the per-time unpivot/deduplication is skipped entirely (DIST)
/// or replaced by a presence popcount (ALL).

namespace graphtempo {

/// A tuple of dictionary-encoded attribute values (one per aggregation
/// attribute, in the order the attributes were requested). Fixed capacity,
/// value type, hashable, ordered by its codes.
class AttrTuple {
 public:
  static constexpr std::size_t kMaxAttrs = 8;

  AttrTuple() = default;

  /// Builds a tuple from up to kMaxAttrs codes.
  static AttrTuple Of(std::initializer_list<AttrValueId> codes) {
    AttrTuple tuple;
    for (AttrValueId code : codes) tuple.Append(code);
    return tuple;
  }

  void Append(AttrValueId code) {
    GT_CHECK_LT(size_, kMaxAttrs) << "too many aggregation attributes";
    codes_[size_++] = code;
  }

  std::size_t size() const { return size_; }

  AttrValueId operator[](std::size_t i) const {
    GT_DCHECK(i < size_);
    return codes_[i];
  }

  bool operator==(const AttrTuple& other) const {
    if (size_ != other.size_) return false;
    for (std::size_t i = 0; i < size_; ++i) {
      if (codes_[i] != other.codes_[i]) return false;
    }
    return true;
  }

  /// Codes ascending, position by position (kNoValue, the largest code,
  /// last); a tuple orders before its extensions.
  bool operator<(const AttrTuple& other) const {
    return std::lexicographical_compare(codes_.begin(), codes_.begin() + size_,
                                        other.codes_.begin(),
                                        other.codes_.begin() + other.size_);
  }

  /// FNV-1a over the used codes.
  std::size_t Hash() const {
    std::size_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < size_; ++i) {
      h ^= codes_[i];
      h *= 1099511628211ull;
    }
    return h;
  }

 private:
  std::array<AttrValueId, kMaxAttrs> codes_ = {};
  std::uint8_t size_ = 0;
};

struct AttrTupleHash {
  std::size_t operator()(const AttrTuple& tuple) const { return tuple.Hash(); }
};

/// An ordered pair of attribute tuples: the key of an aggregate edge.
struct AttrTuplePair {
  AttrTuple src;
  AttrTuple dst;

  bool operator==(const AttrTuplePair&) const = default;
};

struct AttrTuplePairHash {
  std::size_t operator()(const AttrTuplePair& pair) const {
    std::size_t h = pair.src.Hash();
    h ^= pair.dst.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
  }
};

/// How the group codes of one answer stand for attribute tuples.
///
/// A *packed* codec reads a code as a mixed-radix number over the attribute
/// dictionaries: radix i is the dictionary size + 1, and digit i is the
/// value's code, or `radix - 1` for kNoValue. A *numbered* codec, for
/// domains too wide to pack into 32 bits, numbers the distinct tuples of one
/// answer in ascending order. Either way code order is tuple order (kNoValue
/// last), so an answer sorts, ranks, sums and compares on codes alone.
class TupleCodec {
 public:
  /// Arity 0: one code, the empty tuple.
  TupleCodec() = default;

  /// The packed codec of `attrs` over `graph`'s dictionaries; nullopt when
  /// its cell count would exceed `max_cells`.
  static std::optional<TupleCodec> Packed(const TemporalGraph& graph,
                                          std::span<const AttrRef> attrs,
                                          std::uint64_t max_cells);
  /// A packed codec over explicit radices (each ≥ 1); nullopt when their
  /// product would exceed `max_cells`.
  static std::optional<TupleCodec> Packed(std::span<const std::uint64_t> radices,
                                          std::uint64_t max_cells);
  /// The numbered codec of `tuples`, all of one arity (sorted and
  /// deduplicated here).
  static TupleCodec Numbered(std::vector<AttrTuple> tuples);

  /// Digit of `value` under radix `radix`.
  static std::uint64_t Digit(AttrValueId value, std::uint64_t radix) {
    return std::min<std::uint64_t>(value, radix - 1);
  }

  bool packed() const { return packed_; }
  std::size_t arity() const { return arity_; }
  /// Number of codes: every code is below it.
  std::uint64_t cells() const { return cells_; }
  /// Radix of attribute `i` (packed codecs).
  std::uint64_t radix(std::size_t i) const { return radices_[i]; }
  /// The tuples of a numbered codec, code order.
  const std::vector<AttrTuple>& tuples() const { return tuples_; }

  AttrTuple Decode(std::uint64_t code) const;

  /// The code of `tuple`; nullopt for another arity, a value outside an
  /// attribute's dictionary, or (numbered) a tuple the codec does not hold.
  std::optional<std::uint64_t> Encode(const AttrTuple& tuple) const;

  bool operator==(const TupleCodec&) const = default;

 private:
  bool packed_ = true;
  std::uint8_t arity_ = 0;
  std::uint64_t cells_ = 1;
  std::array<std::uint64_t, AttrTuple::kMaxAttrs> radices_ = {};
  std::vector<AttrTuple> tuples_;
};

/// COUNT weights. Signed so weight arithmetic (e.g. roll-up sums, deltas in
/// tests) cannot underflow silently.
using Weight = std::int64_t;

/// One group of an answer: its code and its weights.
template <typename W>
struct GroupRow {
  std::uint64_t code = 0;
  W weight{};

  bool operator==(const GroupRow&) const = default;
};

/// An answer on group codes: one codec, and per side one array of
/// (code, weights) rows in ascending code order — which is tuple order. An
/// edge's code is `code(src) · cells + code(dst)`, so edge rows are in
/// (src, dst) tuple order. Shared by AggregateGraph and EvolutionAggregate.
template <typename W>
class CodedGraph {
 public:
  using Row = GroupRow<W>;

  CodedGraph() = default;
  /// Rows must be well formed (see `WellFormed`).
  CodedGraph(TupleCodec codec, std::vector<Row> nodes, std::vector<Row> edges)
      : codec_(std::move(codec)), nodes_(std::move(nodes)), edges_(std::move(edges)) {
    GT_DCHECK(WellFormed(codec_, nodes_, edges_));
  }

  const TupleCodec& codec() const { return codec_; }
  std::span<const Row> nodes() const { return nodes_; }
  std::span<const Row> edges() const { return edges_; }
  std::size_t NodeCount() const { return nodes_.size(); }
  std::size_t EdgeCount() const { return edges_.size(); }

  AttrTuple NodeTuple(std::uint64_t code) const { return codec_.Decode(code); }
  AttrTuplePair EdgePair(std::uint64_t code) const {
    return {codec_.Decode(code / codec_.cells()), codec_.Decode(code % codec_.cells())};
  }

  /// Calls `fn(tuple, weights)` per node group / `fn(src, dst, weights)` per
  /// edge group, in code order.
  template <typename Fn>
  void ForEachNode(const Fn& fn) const {
    for (const Row& row : nodes_) fn(NodeTuple(row.code), row.weight);
  }
  template <typename Fn>
  void ForEachEdge(const Fn& fn) const {
    for (const Row& row : edges_) {
      const AttrTuplePair pair = EdgePair(row.code);
      fn(pair.src, pair.dst, row.weight);
    }
  }

  /// Rows with codes strictly ascending and within `codec`'s node (cells)
  /// or edge (cells²) code space.
  static bool WellFormed(const TupleCodec& codec, std::span<const Row> nodes,
                         std::span<const Row> edges) {
    const std::uint64_t cells = codec.cells();
    return Ascending(nodes, cells) &&
           (cells == 0 || cells <= ~std::uint64_t{0} / cells) &&
           Ascending(edges, cells * cells);
  }

  /// Content equality: the same tuples with the same weights, under any two
  /// codecs (both hold their rows in tuple order).
  bool operator==(const CodedGraph& other) const {
    if (codec_ == other.codec_) return nodes_ == other.nodes_ && edges_ == other.edges_;
    if (nodes_.size() != other.nodes_.size() || edges_.size() != other.edges_.size()) {
      return false;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!(nodes_[i].weight == other.nodes_[i].weight) ||
          !(NodeTuple(nodes_[i].code) == other.NodeTuple(other.nodes_[i].code))) {
        return false;
      }
    }
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      if (!(edges_[i].weight == other.edges_[i].weight) ||
          !(EdgePair(edges_[i].code) == other.EdgePair(other.edges_[i].code))) {
        return false;
      }
    }
    return true;
  }

 protected:
  /// Weights of a node / edge group; all-zero if absent.
  W FindNode(const AttrTuple& tuple) const {
    const std::optional<std::uint64_t> code = codec_.Encode(tuple);
    return code.has_value() ? Find(nodes_, *code) : W{};
  }
  W FindEdge(const AttrTuple& src, const AttrTuple& dst) const {
    const std::optional<std::uint64_t> s = codec_.Encode(src);
    const std::optional<std::uint64_t> d = codec_.Encode(dst);
    if (!s.has_value() || !d.has_value()) return W{};
    return Find(edges_, *s * codec_.cells() + *d);
  }

 private:
  static W Find(const std::vector<Row>& rows, std::uint64_t code) {
    auto it = std::lower_bound(
        rows.begin(), rows.end(), code,
        [](const Row& row, std::uint64_t c) { return row.code < c; });
    return it != rows.end() && it->code == code ? it->weight : W{};
  }
  static bool Ascending(std::span<const Row> rows, std::uint64_t limit) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].code >= limit) return false;
      if (i > 0 && rows[i - 1].code >= rows[i].code) return false;
    }
    return true;
  }

  TupleCodec codec_;
  std::vector<Row> nodes_;
  std::vector<Row> edges_;
};

/// The aggregated graph G'(V', E', W_V', W_E') of Definition 2.6: aggregate
/// nodes (attribute tuples) and aggregate edges (tuple pairs), both carrying
/// COUNT weights, held as code-ordered rows (CodedGraph).
class AggregateGraph : public CodedGraph<Weight> {
 public:
  using CodedGraph::CodedGraph;

  /// Weight of aggregate node `tuple`; 0 if the node is absent.
  Weight NodeWeight(const AttrTuple& tuple) const { return FindNode(tuple); }

  /// Weight of aggregate edge (src, dst); 0 if absent.
  Weight EdgeWeight(const AttrTuple& src, const AttrTuple& dst) const {
    return FindEdge(src, dst);
  }

  /// Sum of all node / edge weights.
  Weight TotalNodeWeight() const { return Total(nodes()); }
  Weight TotalEdgeWeight() const { return Total(edges()); }

 private:
  static Weight Total(std::span<const Row> rows) {
    Weight total = 0;
    for (const Row& row : rows) total += row.weight;
    return total;
  }
};

/// DIST or ALL counting (see file comment).
enum class AggregationSemantics { kDistinct, kAll };

/// How Algorithm 2 groups the group codes of appearances into aggregate
/// nodes and edges.
///
/// Every tuple is a group code (a mixed-radix integer over the attribute
/// dictionary domains, or the tuple's index when the domain does not fit 32
/// bits). The *dense* path accumulates weights in flat arrays indexed by
/// code; it applies when the packed cell space is small (see
/// `kDenseNodeCellsMax` / `kDenseEdgePairsMax`). The *hash* path
/// accumulates them in hash maps keyed by code. Both produce identical
/// AggregateGraphs; tests/aggregation_kernel_test.cc pins both against the
/// reference in tests/reference_impl.h.
enum class GroupingStrategy {
  kAuto,   ///< dense when the packed domain fits the thresholds (default)
  kDense,  ///< force dense; GT_CHECKs that the domain fits
  kHash,   ///< force hash tables on the group codes
};

/// kAuto thresholds: a dense node table holds at most this many cells, and a
/// dense edge table at most this many cell *pairs* (the edge table is the
/// square of the node domain). 2 MiB / 8 MiB of Weight per chunk at most.
inline constexpr std::size_t kDenseNodeCellsMax = std::size_t{1} << 18;
inline constexpr std::size_t kDenseEdgePairsMax = std::size_t{1} << 20;

/// Optional predicate limiting which (node, time) appearances participate in
/// an aggregation; used e.g. by the paper's Fig 12 ("authors with
/// #publications > 4"). An edge appearance at time t participates only if
/// both endpoints pass the filter at t.
using NodeTimeFilter = std::function<bool(NodeId, TimeId)>;

struct AggregationOptions {
  AggregationSemantics semantics = AggregationSemantics::kDistinct;
  const NodeTimeFilter* filter = nullptr;
  GroupingStrategy grouping = GroupingStrategy::kAuto;
};

/// Which grouping paths Algorithm 2 will take for `attrs` on `graph` under
/// `requested`. `Aggregate` calls it to choose its tables, and the query
/// planner calls it to render the grouping decision in `QueryPlan::Explain`
/// without running the aggregation (docs/ENGINE.md), so the two cannot
/// disagree. Pure dictionary arithmetic; no data scan.
struct GroupingResolution {
  bool dense_nodes = false;  ///< node side uses the flat dense table
  bool dense_edges = false;  ///< edge side uses the flat dense pair table
};

GroupingResolution ResolveGrouping(const TemporalGraph& graph,
                                   std::span<const AttrRef> attrs,
                                   GroupingStrategy requested);

/// Evaluates the attribute tuple of node `n` at time `t` for the given
/// aggregation attributes.
AttrTuple TupleAt(const TemporalGraph& graph, std::span<const AttrRef> attrs, NodeId n,
                  TimeId t);

/// Aggregates `view` (the output of a temporal operator, or of Project for a
/// snapshot) over `attrs` under `options` — Algorithm 2 of the paper.
AggregateGraph Aggregate(const TemporalGraph& graph, const GraphView& view,
                         std::span<const AttrRef> attrs, const AggregationOptions& options);

/// Convenience overload: DIST, no filter.
AggregateGraph Aggregate(const TemporalGraph& graph, const GraphView& view,
                         std::span<const AttrRef> attrs,
                         AggregationSemantics semantics = AggregationSemantics::kDistinct);

/// Merges mirrored aggregate edges: the weights of (a, b) and (b, a) are
/// summed under the canonical orientation (lower tuple first, by code
/// sequence). For conceptually undirected graphs — co-rating, face-to-face
/// contact — where ingestion stored one arbitrary direction per pair, this
/// yields orientation-independent aggregate edges. Self-pairs (a, a) are
/// unchanged. Node weights are copied verbatim.
AggregateGraph SymmetrizeAggregate(const AggregateGraph& aggregate);

/// Renders a tuple as "f,3" using the attribute dictionaries ("∅" for unset).
std::string FormatTuple(const TemporalGraph& graph, std::span<const AttrRef> attrs,
                        const AttrTuple& tuple);

/// Looks up attribute references by name; GT_CHECKs that each exists.
std::vector<AttrRef> ResolveAttributes(const TemporalGraph& graph,
                                       std::initializer_list<std::string_view> names);
std::vector<AttrRef> ResolveAttributes(const TemporalGraph& graph,
                                       const std::vector<std::string>& names);

}  // namespace graphtempo

#endif  // GRAPHTEMPO_CORE_AGGREGATION_H_
