#ifndef GRAPHTEMPO_CORE_GROUPING_INTERNAL_H_
#define GRAPHTEMPO_CORE_GROUPING_INTERNAL_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/aggregation.h"
#include "core/presence_index.h"
#include "obs/trace.h"
#include "util/parallel.h"

/// \file
/// Group-code machinery shared by Algorithm 2 (core/aggregation.cc), the
/// evolution aggregation (core/evolution.cc) and the exploration counting
/// kernel (core/exploration.cc): tuple packing, per-node group codes,
/// per-entity walks over the presence columns, and per-chunk weight
/// tables keyed by code. Not part of the public API.

namespace graphtempo::internal_grouping {

/// Entities per chunk of the grouping scans. Each entity costs a code
/// lookup (or several) plus table updates, so chunks earn their dispatch
/// overhead much earlier than the raw presence scans of the operators
/// (whose default is 2048).
inline constexpr std::size_t kGroupMinPerChunk = 512;

/// The group code of every node a request reads. A code is the node's
/// packed tuple (TupleCodec::Packed) when the attribute domain has fewer than
/// 2^32 cells, and otherwise the index of the tuple among the distinct ones
/// the request meets, in ascending tuple order (TupleCodec::Numbered); either
/// way code order is tuple order. `kHidden` marks a (node, time) the filter
/// hides.
///
/// The attribute columns are hoisted once per request, as one base pointer
/// per attribute and time point: the code of attribute i for node n at time
/// t is `at_time[t][n]`, where a time-varying column contributes its
/// per-time-point code arrays and a static column its one array at every t.
/// Two loads (the first hot) instead of a bounds-checked call. Static
/// attributes without a filter get one code per node: computed up front when
/// there are several (one load then replaces a multiply-add per attribute),
/// and read straight from the column for a single one (its digit is the
/// stored value capped at `radix - 1`, so a pass over every node would only
/// add work).
/// Otherwise packed codes are computed per appearance, and unpackable domains
/// number their tuples up front, one code per node and time point of the
/// request.
class NodeCodes {
 public:
  static constexpr std::uint32_t kHidden = std::numeric_limits<std::uint32_t>::max();

  /// Codes at the time points `times`. An empty `times` stands for every
  /// time point at once, which is exact for static attributes without a
  /// filter. `span_name` names the span of the up-front code pass.
  NodeCodes(const TemporalGraph& graph, std::span<const AttrRef> attrs,
            std::span<const TimeId> times, const NodeTimeFilter* filter,
            const char* span_name)
      : codec_(TupleCodec::Packed(graph, attrs, kHidden)
                     .value_or(TupleCodec::Numbered({}))),
        filter_(filter),
        per_appearance_(codec_.packed() && !times.empty()),
        slots_(std::max<std::size_t>(times.size(), 1)) {
    GT_CHECK_LE(attrs.size(), AttrTuple::kMaxAttrs) << "too many aggregation attributes";
    const std::size_t nodes = graph.num_nodes();
    const std::size_t domain = std::max<std::size_t>(graph.num_times(), 1);
    bases_.resize(attrs.size() * domain);
    for (const AttrRef& ref : attrs) {
      const AttrValueId** at_time = bases_.data() + num_attrs_ * domain;
      if (ref.kind == AttrRef::Kind::kStatic) {
        const std::vector<AttrValueId>& codes = graph.static_attribute(ref.index).codes();
        GT_CHECK_GE(codes.size(), nodes) << "static attribute column misses nodes";
        std::fill(at_time, at_time + domain, codes.data());
      } else {
        const TimeVaryingColumn& column = graph.time_varying_attribute(ref.index);
        GT_CHECK_EQ(column.num_times(), graph.num_times())
            << "time-varying attribute column misses time points";
        GT_CHECK_GE(column.size(), nodes) << "time-varying attribute column misses nodes";
        for (std::size_t t = 0; t < column.num_times(); ++t) {
          at_time[t] = column.CodesAt(t).data();
        }
      }
      columns_[num_attrs_].at_time = at_time;
      if (codec_.packed()) columns_[num_attrs_].radix = codec_.radix(num_attrs_);
      ++num_attrs_;
    }
    if (codec_.packed() && times.empty() && num_attrs_ == 1) {
      node_codes_ = columns_[0].at_time[0];  // Digit(code) == min(code, radix - 1)
      node_cap_ = static_cast<std::uint32_t>(columns_[0].radix - 1);
    } else if (!per_appearance_) {
      // Up front: one code per node (static), or one per node and time.
      GT_SPAN(span_name, {{"nodes", nodes}, {"slots", slots_}});
      slot_of_.assign(graph.num_times(), 0);
      for (std::uint32_t s = 0; s < times.size(); ++s) slot_of_[times[s]] = s;
      codes_.resize(nodes * slots_);
      if (codec_.packed()) {  // static: pack on the pool
        ParallelPartition(nodes, kGroupMinPerChunk, /*alignment=*/1)
            .Run([&](std::size_t, std::size_t begin, std::size_t end) {
              for (std::size_t n = begin; n < end; ++n) {
                codes_[n] = Pack(static_cast<NodeId>(n), 0);
              }
            });
      } else {  // too wide to pack: number the tuples, then renumber in order
        std::unordered_map<AttrTuple, std::uint32_t, AttrTupleHash> index;
        std::vector<AttrTuple> met;
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
                index.try_emplace(tuple, static_cast<std::uint32_t>(met.size()));
            if (added) met.push_back(tuple);
            codes_[n * slots_ + s] = it->second;
          }
        }
        codec_ = TupleCodec::Numbered(met);
        std::vector<std::uint32_t> order_of(met.size());
        for (std::size_t i = 0; i < met.size(); ++i) {
          order_of[i] = static_cast<std::uint32_t>(*codec_.Encode(met[i]));
        }
        for (std::uint32_t& code : codes_) {
          if (code != kHidden) code = order_of[code];
        }
      }
      node_codes_ = codes_.data();
    }
  }

  // A copy would still point into the original's codes.
  NodeCodes(const NodeCodes&) = delete;
  NodeCodes& operator=(const NodeCodes&) = delete;

  /// Code of node n at time t, a time point of the constructor's `times`.
  std::uint32_t At(NodeId n, TimeId t) const {
    if (!per_appearance_) return codes_[n * slots_ + slot_of_[t]];
    return Hidden(n, t) ? kHidden : Pack(n, t);
  }
  /// Code of node n when the codes stand for every time point.
  std::uint32_t At(NodeId n) const { return std::min(node_codes_[n], node_cap_); }

  /// The codec of the codes: what an answer built on them decodes with.
  const TupleCodec& codec() const { return codec_; }

  /// Number of distinct codes: every code is below it.
  std::size_t cells() const { return codec().cells(); }

  /// The code of `tuple`, or nullopt when no code stands for it: another
  /// arity, a value outside an attribute's dictionary, or (numbered tuples)
  /// a tuple no node carries at the constructor's time points.
  std::optional<std::uint64_t> CodeOf(const AttrTuple& tuple) const {
    return codec().Encode(tuple);
  }

 private:
  struct Column {
    const AttrValueId* const* at_time = nullptr;  // code of n at t: at_time[t][n]
    std::size_t radix = 0;  // the packer's radix of the attribute
  };

  AttrValueId Code(std::size_t i, NodeId n, TimeId t) const {
    return columns_[i].at_time[t][n];
  }
  std::uint32_t Pack(NodeId n, TimeId t) const {
    std::size_t packed = TupleCodec::Digit(Code(0, n, t), columns_[0].radix);
    for (std::size_t i = 1; i < num_attrs_; ++i) {
      packed = packed * columns_[i].radix +
               TupleCodec::Digit(Code(i, n, t), columns_[i].radix);
    }
    return static_cast<std::uint32_t>(packed);
  }
  bool Hidden(NodeId n, TimeId t) const { return filter_ != nullptr && !(*filter_)(n, t); }

  std::array<Column, AttrTuple::kMaxAttrs> columns_;
  std::size_t num_attrs_ = 0;
  // Per attribute, one code array per time point of the domain: the
  // time-varying column's own arrays, or the static column repeated.
  std::vector<const AttrValueId*> bases_;
  TupleCodec codec_;  // packed, or numbered once the constructor met the tuples
  const NodeTimeFilter* const filter_;
  const bool per_appearance_;  // packed codes computed by At(n, t)
  const std::size_t slots_;
  std::vector<std::uint32_t> slot_of_;  // time point → slot of `codes_`
  std::vector<std::uint32_t> codes_;    // node-major, `slots_` per node
  const std::uint32_t* node_codes_ = nullptr;  // At(n): min(node_codes_[n], node_cap_)
  std::uint32_t node_cap_ = kHidden;
};

/// Presence read off the column store (PresenceIndex) for a per-entity
/// walk, one 64-entity word at a time. The request's time points,
/// ascending, are its slots. For entity word `w`, `ForEachAppearance` loads
/// word `w` of each slot's column once (one load per slot for up to 64
/// entities) and calls `fn(i, slot)` for every appearance of the chosen
/// entities, bit `i` standing for entity 64·w + i, slot by slot. A walk
/// keeps its per-entity state in arrays over `i` (EntityCodes), so no
/// per-entity row is ever built.
class SlotColumns {
 public:
  SlotColumns(const PresenceIndex& presence, std::span<const TimeId> times) {
    columns_.reserve(times.size());
    for (TimeId t : times) columns_.push_back(presence.Column(t).word_data());
  }

  std::size_t slots() const { return columns_.size(); }

  /// Word `w` of the column at `slot`.
  std::uint64_t Word(std::size_t slot, std::size_t w) const { return columns_[slot][w]; }

  template <typename Fn>
  void ForEachAppearance(std::size_t w, std::uint64_t chosen, const Fn& fn) const {
    for (std::size_t s = 0; s < columns_.size(); ++s) {
      for (std::uint64_t bits = columns_[s][w] & chosen; bits != 0; bits &= bits - 1) {
        fn(static_cast<std::size_t>(std::countr_zero(bits)), s);
      }
    }
  }

 private:
  std::vector<const std::uint64_t*> columns_;  // slot → its column's words
};

/// Calls `fn(w, chosen)` for `entities[begin, end)`, ascending ids, one call
/// per run of entities sharing word `w` (`chosen`: their bits in it).
template <typename Entity, typename Fn>
void ForEachWordOf(std::span<const Entity> entities, std::size_t begin, std::size_t end,
                   const Fn& fn) {
  while (begin < end) {
    const std::size_t w = entities[begin] / 64;
    std::uint64_t chosen = 0;
    for (; begin < end && entities[begin] / 64 == w; ++begin) {
      chosen |= std::uint64_t{1} << (entities[begin] % 64);
    }
    fn(w, chosen);
  }
}

/// The distinct group codes each entity of one word met during a walk, as
/// `Entry`s (whose first member is the code): room for one per slot for
/// each of the 64 entities. Reused across words: `Clear` before each.
template <typename Entry>
class EntityCodes {
 public:
  explicit EntityCodes(std::size_t slots)
      : capacity_(std::max<std::size_t>(slots, 1)), entries_(64 * capacity_) {}

  void Clear() { counts_.fill(0); }

  /// The entry of `code` for entity bit `i`, and whether it was just added
  /// (as `Entry{code}`).
  std::pair<Entry*, bool> FindOrAdd(std::size_t i, std::uint64_t code) {
    Entry* first = entries_.data() + i * capacity_;
    Entry* last = first + counts_[i];
    Entry* it = std::find_if(first, last, [&](const Entry& entry) {
      return entry.code == code;
    });
    if (it != last) return {it, false};
    *last = Entry{code};
    ++counts_[i];
    return {last, true};
  }

  /// The entries of entity bit `i`.
  std::span<const Entry> Of(std::size_t i) const {
    return {entries_.data() + i * capacity_, counts_[i]};
  }

 private:
  const std::size_t capacity_;
  std::vector<Entry> entries_;
  std::array<std::uint32_t, 64> counts_ = {};
};

/// A code met by an entity, for EntityCodes.
struct MetCode {
  std::uint64_t code;
};

/// Weights `W` per group code (one chunk's, or a sum's): a flat array over
/// every code when dense, a hash map on the code otherwise.
template <typename W>
class GroupWeights {
 public:
  GroupWeights() = default;
  GroupWeights(bool dense, std::uint64_t codes) : dense_(dense) {
    if (dense_) flat_.resize(codes);
  }

  W& Flat(std::uint64_t code) { return flat_[code]; }
  W& Hashed(std::uint64_t code) { return hashed_[code]; }
  W& operator[](std::uint64_t code) { return dense_ ? Flat(code) : Hashed(code); }

  /// Adds `part`, a table built with the same constructor arguments.
  void MergeFrom(const GroupWeights& part) {
    part.ForEach([&](std::uint64_t code, const W& weights) {
      (*this)[code] += weights;
    });
  }

  /// The non-empty groups as rows in ascending code order: the dense table
  /// read in order, or the hashed codes sorted once.
  std::vector<GroupRow<W>> Rows() const {
    std::vector<GroupRow<W>> rows;
    if (!dense_) {
      rows.reserve(hashed_.size());
      for (const auto& [code, weights] : hashed_) {
        if (!(weights == W{})) rows.push_back({code, weights});
      }
      std::sort(rows.begin(), rows.end(), [](const GroupRow<W>& a, const GroupRow<W>& b) {
        return a.code < b.code;
      });
      return rows;
    }
    rows.reserve(static_cast<std::size_t>(std::count_if(
        flat_.begin(), flat_.end(), [](const W& w) { return !(w == W{}); })));
    for (std::size_t code = 0; code < flat_.size(); ++code) {
      if (!(flat_[code] == W{})) rows.push_back({std::uint64_t{code}, flat_[code]});
    }
    return rows;
  }

  /// Calls `fn(code, weights)` for every non-empty group (ascending by code
  /// on the dense path).
  template <typename Fn>
  void ForEach(const Fn& fn) const {
    for (const auto& [code, weights] : hashed_) fn(code, weights);
    for (std::size_t code = 0; code < flat_.size(); ++code) {
      if (!(flat_[code] == W{})) fn(std::uint64_t{code}, flat_[code]);
    }
  }

 private:
  bool dense_ = true;
  std::vector<W> flat_;
  std::unordered_map<std::uint64_t, W> hashed_;
};

/// A table to sum about `rows` rows over `codes` codes into: dense when the
/// code space is small next to the rows (one flat pass then beats a sort),
/// hashed otherwise.
template <typename W>
GroupWeights<W> SumTable(std::uint64_t codes, std::size_t rows) {
  return GroupWeights<W>(codes <= kDenseEdgePairsMax && codes <= 8 * rows + 4096, codes);
}

/// Runs `scan(begin, end, cell)` for every chunk of `partition` on the pool,
/// each into a private `GroupWeights<W>(dense, codes)`; `cell(code)` is the
/// chunk table's weights of `code`, resolved to the flat or the hashed form
/// once per chunk.
template <typename W, typename Scan>
std::vector<GroupWeights<W>> ScanChunks(const ParallelPartition& partition, bool dense,
                                        std::uint64_t codes, const Scan& scan) {
  std::vector<GroupWeights<W>> parts(partition.num_chunks());
  partition.Run([&](std::size_t chunk, std::size_t begin, std::size_t end) {
    GroupWeights<W>& table = parts[chunk] = GroupWeights<W>(dense, codes);
    if (dense) {
      scan(begin, end, [&](std::uint64_t code) -> W& { return table.Flat(code); });
    } else {
      scan(begin, end, [&](std::uint64_t code) -> W& { return table.Hashed(code); });
    }
  });
  return parts;
}

/// Merges the chunk tables of ScanChunks into the first, in ascending chunk
/// order, and returns it.
template <typename W>
GroupWeights<W>& MergeChunks(std::vector<GroupWeights<W>>& parts) {
  for (std::size_t c = 1; c < parts.size(); ++c) parts[0].MergeFrom(parts[c]);
  return parts[0];
}

}  // namespace graphtempo::internal_grouping

#endif  // GRAPHTEMPO_CORE_GROUPING_INTERNAL_H_
