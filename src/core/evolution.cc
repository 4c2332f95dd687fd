#include "core/evolution.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/grouping_internal.h"
#include "obs/trace.h"
#include "util/parallel.h"

namespace graphtempo {

const char* EventTypeName(EventType event) {
  switch (event) {
    case EventType::kStability:
      return "stability";
    case EventType::kGrowth:
      return "growth";
    case EventType::kShrinkage:
      return "shrinkage";
  }
  GT_CHECK(false) << "invalid event type";
  __builtin_unreachable();
}

const GraphView& EvolutionGraph::ForEvent(EventType event) const {
  switch (event) {
    case EventType::kStability:
      return stability;
    case EventType::kGrowth:
      return growth;
    case EventType::kShrinkage:
      return shrinkage;
  }
  GT_CHECK(false) << "invalid event type";
  __builtin_unreachable();
}

EvolutionGraph MakeEvolutionGraph(const TemporalGraph& graph, const IntervalSet& t_old,
                                  const IntervalSet& t_new) {
  EvolutionGraph evolution;
  evolution.stability = IntersectionOp(graph, t_old, t_new);
  evolution.shrinkage = DifferenceOp(graph, t_old, t_new);
  evolution.growth = DifferenceOp(graph, t_new, t_old);
  return evolution;
}

Weight EvolutionWeights::ForEvent(EventType event) const {
  switch (event) {
    case EventType::kStability:
      return stability;
    case EventType::kGrowth:
      return growth;
    case EventType::kShrinkage:
      return shrinkage;
  }
  GT_CHECK(false) << "invalid event type";
  __builtin_unreachable();
}

EvolutionWeights EvolutionAggregate::NodeWeights(const AttrTuple& tuple) const {
  auto it = nodes_.find(tuple);
  return it == nodes_.end() ? EvolutionWeights{} : it->second;
}

EvolutionWeights EvolutionAggregate::EdgeWeights(const AttrTuple& src,
                                                 const AttrTuple& dst) const {
  auto it = edges_.find(AttrTuplePair{src, dst});
  return it == edges_.end() ? EvolutionWeights{} : it->second;
}

namespace {

using internal_grouping::DensePacker;

/// Entities per chunk of the evolution scans: Algorithm 2's grain.
constexpr std::size_t kEvoMinPerChunk = 512;

void Bump(EvolutionWeights& weights, EventType event) {
  switch (event) {
    case EventType::kStability:
      ++weights.stability;
      break;
    case EventType::kGrowth:
      ++weights.growth;
      break;
    case EventType::kShrinkage:
      ++weights.shrinkage;
      break;
  }
}

/// The event of a group seen on the old side, the new side, or both.
EventType SideEvent(bool in_old, bool in_new) {
  if (in_old) return in_new ? EventType::kStability : EventType::kShrinkage;
  return EventType::kGrowth;
}

/// The group code of every node a request reads. A code is the node's
/// packed tuple (DensePacker) when the attribute domain has fewer than 2^32
/// cells, and otherwise the index of the tuple among the distinct ones the
/// request meets; `kHidden` marks a (node, time) the filter hides.
///
/// The attribute columns are hoisted once per request: the code of
/// attribute i for node n at time t is `base[n * entity_stride + t *
/// time_stride]` (time_stride 0 for a static column), one load instead of a
/// bounds-checked call. Static attributes without a filter get one code per
/// node, computed up front; otherwise packed codes are computed per
/// appearance, and unpackable domains number their tuples up front, one
/// code per node and time point of the request.
class NodeCodes {
 public:
  static constexpr std::uint32_t kHidden = std::numeric_limits<std::uint32_t>::max();

  /// Codes at the time points `times`. An empty `times` stands for every
  /// time point at once, which is exact for static attributes without a
  /// filter.
  NodeCodes(const TemporalGraph& graph, std::span<const AttrRef> attrs,
            std::span<const TimeId> times, const NodeTimeFilter* filter)
      : packer_(DensePacker::Create(graph, attrs, kHidden)),
        filter_(filter),
        per_appearance_(packer_.has_value() && !times.empty()),
        slots_(std::max<std::size_t>(times.size(), 1)) {
    GT_CHECK_LE(attrs.size(), AttrTuple::kMaxAttrs) << "too many aggregation attributes";
    const std::size_t nodes = graph.num_nodes();
    for (const AttrRef& ref : attrs) {
      if (ref.kind == AttrRef::Kind::kStatic) {
        const std::vector<AttrValueId>& codes = graph.static_attribute(ref.index).codes();
        GT_CHECK_GE(codes.size(), nodes) << "static attribute column misses nodes";
        columns_[num_attrs_++] = {codes.data(), 1, 0};
      } else {
        const TimeVaryingColumn& column = graph.time_varying_attribute(ref.index);
        GT_CHECK_EQ(column.num_times(), graph.num_times())
            << "time-varying attribute column misses time points";
        GT_CHECK_GE(column.codes().size(), nodes * graph.num_times())
            << "time-varying attribute column misses nodes";
        columns_[num_attrs_++] = {column.codes().data(), column.num_times(), 1};
      }
    }
    if (packer_.has_value()) cells_ = packer_->cells();
    if (!per_appearance_) {
      // Up front: one code per node (static), or one per node and time.
      GT_SPAN("evo/codes", {{"nodes", nodes}, {"slots", slots_}});
      slot_of_.assign(graph.num_times(), 0);
      for (std::uint32_t s = 0; s < times.size(); ++s) slot_of_[times[s]] = s;
      codes_.resize(nodes * slots_);
      if (packer_.has_value()) {  // static: pack on the pool
        ParallelPartition(nodes, kEvoMinPerChunk, /*alignment=*/1)
            .Run([&](std::size_t, std::size_t begin, std::size_t end) {
              for (std::size_t n = begin; n < end; ++n) {
                codes_[n] = Pack(static_cast<NodeId>(n), 0);
              }
            });
      } else {  // too wide to pack: number the tuples in (node, time) order
        std::unordered_map<AttrTuple, std::uint32_t, AttrTupleHash> index;
        for (NodeId n = 0; n < nodes; ++n) {
          for (std::size_t s = 0; s < slots_; ++s) {
            const TimeId t = times.empty() ? TimeId{0} : times[s];
            if (Hidden(n, t)) {
              codes_[n * slots_ + s] = kHidden;
              continue;
            }
            AttrTuple tuple;
            for (std::size_t i = 0; i < num_attrs_; ++i) tuple.Append(Code(i, n, t));
            auto [it, added] =
                index.try_emplace(tuple, static_cast<std::uint32_t>(tuples_.size()));
            if (added) tuples_.push_back(tuple);
            codes_[n * slots_ + s] = it->second;
          }
        }
        cells_ = tuples_.size();
      }
    }
    if (packer_.has_value() && cells_ <= kDecodedCellsMax) {
      for (std::size_t code = 0; code < cells_; ++code) {
        tuples_.push_back(packer_->Unpack(code));
      }
    }
  }

  /// Code of node n at time t, a time point of the constructor's `times`.
  std::uint32_t At(NodeId n, TimeId t) const {
    if (!per_appearance_) return codes_[n * slots_ + slot_of_[t]];
    return Hidden(n, t) ? kHidden : Pack(n, t);
  }
  /// Code of node n when the codes stand for every time point.
  std::uint32_t At(NodeId n) const { return codes_[n]; }

  /// Number of distinct codes: every code is below it.
  std::size_t cells() const { return cells_; }

  AttrTuple Tuple(std::uint64_t code) const {
    return tuples_.empty() ? packer_->Unpack(code) : tuples_[code];
  }

 private:
  /// Packed domains up to this many cells decode every code once, up front,
  /// so emitting thousands of edge groups costs two loads per group.
  static constexpr std::size_t kDecodedCellsMax = 4096;

  struct Column {
    const AttrValueId* base = nullptr;
    std::size_t entity_stride = 0;
    std::size_t time_stride = 0;
  };

  AttrValueId Code(std::size_t i, NodeId n, TimeId t) const {
    const Column& column = columns_[i];
    return column.base[n * column.entity_stride + t * column.time_stride];
  }
  std::uint32_t Pack(NodeId n, TimeId t) const {
    std::size_t packed = 0;
    for (std::size_t i = 0; i < num_attrs_; ++i) {
      packed = packed * packer_->radix(i) + DensePacker::Digit(Code(i, n, t));
    }
    return static_cast<std::uint32_t>(packed);
  }
  bool Hidden(NodeId n, TimeId t) const { return filter_ != nullptr && !(*filter_)(n, t); }

  std::array<Column, AttrTuple::kMaxAttrs> columns_;
  std::size_t num_attrs_ = 0;
  const std::optional<DensePacker> packer_;
  const NodeTimeFilter* const filter_;
  const bool per_appearance_;  // packed codes computed by At(n, t)
  const std::size_t slots_;
  std::vector<std::uint32_t> slot_of_;  // time point → slot of `codes_`
  std::vector<std::uint32_t> codes_;    // node-major, `slots_` per node
  std::size_t cells_ = 0;
  std::vector<AttrTuple> tuples_;  // code → tuple, when decoded up front
};

/// One chunk's weights per group code: a flat array while the code domain
/// fits the dense threshold, a hash map on the code above it.
class GroupWeights {
 public:
  GroupWeights() = default;
  GroupWeights(std::uint64_t codes, std::size_t dense_max) : dense_(codes <= dense_max) {
    if (dense_) flat_.resize(codes);
  }

  bool dense() const { return dense_; }
  EvolutionWeights& Flat(std::uint64_t code) { return flat_[code]; }
  EvolutionWeights& Hashed(std::uint64_t code) { return hashed_[code]; }
  EvolutionWeights& operator[](std::uint64_t code) {
    return dense_ ? Flat(code) : Hashed(code);
  }

  void MergeFrom(const GroupWeights& part) {
    part.ForEach([&](std::uint64_t code, const EvolutionWeights& weights) {
      EvolutionWeights& total = (*this)[code];
      total.stability += weights.stability;
      total.growth += weights.growth;
      total.shrinkage += weights.shrinkage;
    });
  }

  std::size_t Groups() const {
    std::size_t groups = 0;
    ForEach([&](std::uint64_t, const EvolutionWeights&) { ++groups; });
    return groups;
  }

  /// Calls `fn(code, weights)` for every non-empty group (ascending by code
  /// on the dense path).
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (const auto& [code, weights] : hashed_) fn(code, weights);
    for (std::size_t code = 0; code < flat_.size(); ++code) {
      if (!(flat_[code] == EvolutionWeights{})) fn(std::uint64_t{code}, flat_[code]);
    }
  }

 private:
  bool dense_ = true;
  std::vector<EvolutionWeights> flat_;
  std::unordered_map<std::uint64_t, EvolutionWeights> hashed_;
};

/// Calls `fn(entity, in_old, in_new)` for every entity of
/// `old_fold | new_fold` in [begin, end). `begin` is a multiple of 64, and
/// `end` is one too unless it is the set's size (ParallelPartition with
/// alignment 64), so whole words are visited.
template <typename Fn>
void ForEachInFolds(const DynamicBitset& old_fold, const DynamicBitset& new_fold,
                    std::size_t begin, std::size_t end, const Fn& fn) {
  const std::uint64_t* old_words = old_fold.word_data();
  const std::uint64_t* new_words = new_fold.word_data();
  for (std::size_t w = begin / 64; w < (end + 63) / 64; ++w) {
    for (std::uint64_t any = old_words[w] | new_words[w]; any != 0; any &= any - 1) {
      const int bit = std::countr_zero(any);
      fn(w * 64 + static_cast<std::size_t>(bit), ((old_words[w] >> bit) & 1) != 0,
         ((new_words[w] >> bit) & 1) != 0);
    }
  }
}

/// One distinct group code of an entity and the intervals it appeared in.
struct CodeSides {
  std::uint64_t code;
  bool in_old;
  bool in_new;
};

/// Runs the scan of one side (nodes or edges) on the pool, one private
/// GroupWeights per chunk. With `static_codes`, `code_of(entity)` is the
/// entity's one code and fold membership decides its event. Otherwise one
/// walk over the entity's row under T_old ∪ T_new collects its distinct
/// `code_at(entity, t)` (nullopt: hidden by the filter) with the sides each
/// appeared on, in reused chunk scratch — the per-entity DIST rule: a code
/// on both sides is stable, one only on the old side shrinks, one only on
/// the new side grows.
template <typename CodeOf, typename CodeAt>
std::vector<GroupWeights> ScanSide(const char* span_name, const BitMatrix& presence,
                                   const DynamicBitset& old_fold,
                                   const DynamicBitset& new_fold, const IntervalSet& t_old,
                                   const IntervalSet& t_new, bool static_codes,
                                   std::uint64_t codes, std::size_t dense_max,
                                   const CodeOf& code_of, const CodeAt& code_at) {
  const std::size_t entities = old_fold.size();
  ParallelPartition partition(entities, kEvoMinPerChunk, /*alignment=*/64);
  std::vector<GroupWeights> parts(partition.num_chunks());
  GT_SPAN(span_name, {{"entities", entities}, {"chunks", parts.size()}});
  // `cell(code)` is the chunk table's weights of `code`.
  auto scan_chunk = [&](std::size_t begin, std::size_t end, const auto& cell) {
    if (static_codes) {
      ForEachInFolds(old_fold, new_fold, begin, end,
                     [&](std::size_t entity, bool in_old, bool in_new) {
                       Bump(cell(code_of(entity)), SideEvent(in_old, in_new));
                     });
      return;
    }
    const std::uint64_t* old_mask = t_old.bits().word_data();
    const std::uint64_t* new_mask = t_new.bits().word_data();
    std::vector<CodeSides> seen;
    ForEachInFolds(old_fold, new_fold, begin, end, [&](std::size_t entity, bool, bool) {
      const std::uint64_t* row = presence.row_words(entity);
      seen.clear();
      for (std::size_t w = 0; w < presence.words_per_row(); ++w) {
        const std::uint64_t old_bits = row[w] & old_mask[w];
        const std::uint64_t new_bits = row[w] & new_mask[w];
        for (std::uint64_t bits = old_bits | new_bits; bits != 0; bits &= bits - 1) {
          const int bit = std::countr_zero(bits);
          const std::optional<std::uint64_t> code =
              code_at(entity, static_cast<TimeId>(w * 64 + bit));
          if (!code.has_value()) continue;
          const bool in_old = ((old_bits >> bit) & 1) != 0;
          const bool in_new = ((new_bits >> bit) & 1) != 0;
          auto it = std::find_if(seen.begin(), seen.end(), [&](const CodeSides& entry) {
            return entry.code == *code;
          });
          if (it == seen.end()) {
            seen.push_back({*code, in_old, in_new});
          } else {
            it->in_old |= in_old;
            it->in_new |= in_new;
          }
        }
      }
      for (const CodeSides& entry : seen) {
        Bump(cell(entry.code), SideEvent(entry.in_old, entry.in_new));
      }
    });
  };
  partition.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    GroupWeights& table = parts[chunk] = GroupWeights(codes, dense_max);
    if (table.dense()) {
      scan_chunk(begin, end, [&](std::uint64_t code) -> auto& { return table.Flat(code); });
    } else {
      scan_chunk(begin, end,
                 [&](std::uint64_t code) -> auto& { return table.Hashed(code); });
    }
  });
  return parts;
}

}  // namespace

EvolutionAggregate AggregateEvolution(const TemporalGraph& graph, const IntervalSet& t_old,
                                      const IntervalSet& t_new,
                                      std::span<const AttrRef> attrs,
                                      const NodeTimeFilter* filter) {
  GT_CHECK(!attrs.empty()) << "evolution aggregation needs at least one attribute";

  // Fold first: only entities present in T_old ∪ T_new can carry a tuple.
  DynamicBitset old_nodes, new_nodes, old_edges, new_edges;
  {
    GT_SPAN("evo/fold");
    old_nodes = graph.node_presence_index().UnionOver(t_old.bits());
    new_nodes = graph.node_presence_index().UnionOver(t_new.bits());
    old_edges = graph.edge_presence_index().UnionOver(t_old.bits());
    new_edges = graph.edge_presence_index().UnionOver(t_new.bits());
  }

  // With static attributes and no filter a node's tuple cannot change, so
  // each entity has one code and its event follows from the folds alone:
  // stability = old ∧ new, shrinkage = old − new, growth = new − old.
  const bool static_codes =
      filter == nullptr &&
      std::all_of(attrs.begin(), attrs.end(),
                  [](const AttrRef& ref) { return ref.kind == AttrRef::Kind::kStatic; });
  std::vector<TimeId> times;
  if (!static_codes) (t_old | t_new).ForEach([&](TimeId t) { times.push_back(t); });
  if (!static_codes && times.empty()) return EvolutionAggregate{};
  const NodeCodes codes(graph, attrs, times, filter);
  const std::uint64_t cells = codes.cells();
  const std::span<const std::pair<NodeId, NodeId>> endpoints = graph.edge_endpoints();

  // Group by code (edge code: code(src) · cells + code(dst)), densely within
  // Algorithm 2's thresholds.
  std::vector<GroupWeights> node_parts = ScanSide(
      "evo/nodes_scan", graph.node_presence(), old_nodes, new_nodes, t_old, t_new,
      static_codes, cells, kDenseNodeCellsMax,
      [&](std::size_t n) { return codes.At(static_cast<NodeId>(n)); },
      [&](std::size_t n, TimeId t) -> std::optional<std::uint64_t> {
        const std::uint32_t code = codes.At(static_cast<NodeId>(n), t);
        if (code == NodeCodes::kHidden) return std::nullopt;
        return code;
      });
  std::vector<GroupWeights> edge_parts = ScanSide(
      "evo/edges_scan", graph.edge_presence(), old_edges, new_edges, t_old, t_new,
      static_codes, cells * cells, kDenseEdgePairsMax,
      [&](std::size_t e) {
        return codes.At(endpoints[e].first) * cells + codes.At(endpoints[e].second);
      },
      [&](std::size_t e, TimeId t) -> std::optional<std::uint64_t> {
        const std::uint32_t src = codes.At(endpoints[e].first, t);
        const std::uint32_t dst = codes.At(endpoints[e].second, t);
        if (src == NodeCodes::kHidden || dst == NodeCodes::kHidden) return std::nullopt;
        return src * cells + dst;
      });

  // Merge the chunks in ascending chunk order and emit every non-empty group.
  GT_SPAN("evo/merge", {{"node_chunks", node_parts.size()},
                        {"edge_chunks", edge_parts.size()}});
  for (std::size_t c = 1; c < node_parts.size(); ++c) {
    node_parts[0].MergeFrom(node_parts[c]);
  }
  for (std::size_t c = 1; c < edge_parts.size(); ++c) {
    edge_parts[0].MergeFrom(edge_parts[c]);
  }
  EvolutionAggregate result;
  result.Reserve(node_parts[0].Groups(), edge_parts[0].Groups());
  node_parts[0].ForEach([&](std::uint64_t code, const EvolutionWeights& weights) {
    result.MutableNodeWeights(codes.Tuple(code)) = weights;
  });
  edge_parts[0].ForEach([&](std::uint64_t code, const EvolutionWeights& weights) {
    result.MutableEdgeWeights({codes.Tuple(code / cells), codes.Tuple(code % cells)}) =
        weights;
  });
  return result;
}

namespace {

/// Deterministic tuple ordering for tie-breaks.
bool TupleLess(const AttrTuple& a, const AttrTuple& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

bool PairLess(const AttrTuplePair& a, const AttrTuplePair& b) {
  if (!(a.src == b.src)) return TupleLess(a.src, b.src);
  return TupleLess(a.dst, b.dst);
}

}  // namespace

TopEventGroups RankEventGroups(const TemporalGraph& graph, const IntervalSet& t_old,
                               const IntervalSet& t_new, std::span<const AttrRef> attrs,
                               EventType event, std::size_t top_k,
                               const NodeTimeFilter* filter) {
  EvolutionAggregate evolution = AggregateEvolution(graph, t_old, t_new, attrs, filter);
  TopEventGroups top;
  for (const auto& [tuple, weights] : evolution.nodes()) {
    Weight weight = weights.ForEvent(event);
    if (weight > 0) top.nodes.push_back(RankedNodeGroup{tuple, weight});
  }
  for (const auto& [pair, weights] : evolution.edges()) {
    Weight weight = weights.ForEvent(event);
    if (weight > 0) top.edges.push_back(RankedEdgeGroup{pair, weight});
  }
  std::sort(top.nodes.begin(), top.nodes.end(),
            [](const RankedNodeGroup& a, const RankedNodeGroup& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return TupleLess(a.tuple, b.tuple);
            });
  std::sort(top.edges.begin(), top.edges.end(),
            [](const RankedEdgeGroup& a, const RankedEdgeGroup& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return PairLess(a.pair, b.pair);
            });
  if (top.nodes.size() > top_k) top.nodes.resize(top_k);
  if (top.edges.size() > top_k) top.edges.resize(top_k);
  return top;
}

}  // namespace graphtempo
