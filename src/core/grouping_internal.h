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
#include "obs/trace.h"
#include "util/parallel.h"

/// \file
/// Group-code machinery shared by Algorithm 2 (core/aggregation.cc), the
/// evolution aggregation (core/evolution.cc) and the exploration counting
/// kernel (core/exploration.cc): tuple packing, per-node group codes, the
/// per-entity appearance walk, and per-chunk weight tables keyed by code. Not
/// part of the public API.

namespace graphtempo::internal_grouping {

/// Entities per chunk of the grouping scans. Each entity costs a code
/// lookup (or several) plus table updates, so chunks earn their dispatch
/// overhead much earlier than the raw presence scans of the operators
/// (whose default is 2048).
inline constexpr std::size_t kGroupMinPerChunk = 512;

/// Mixed-radix packer over the dictionary domains of the aggregation
/// attributes: digit i is `code + 1` (0 reserved for kNoValue), radix i is
/// `dictionary size + 1`. Packing is a bijection between attribute tuples and
/// [0, cells()), so a flat weight array replaces the hash map whenever
/// cells() is small — one multiply-add per attribute instead of an FNV hash
/// plus probe chain per appearance.
class DensePacker {
 public:
  /// Returns nullopt when the cell-space product exceeds `max_cells`.
  static std::optional<DensePacker> Create(const TemporalGraph& graph,
                                           std::span<const AttrRef> attrs,
                                           std::size_t max_cells) {
    DensePacker packer;
    packer.radices_.reserve(attrs.size());
    for (const AttrRef& ref : attrs) {
      const Dictionary& dict = ref.kind == AttrRef::Kind::kStatic
                                   ? graph.static_attribute(ref.index).dictionary()
                                   : graph.time_varying_attribute(ref.index).dictionary();
      const std::size_t radix = dict.size() + 1;  // +1: the kNoValue digit
      if (packer.cells_ > max_cells / radix) return std::nullopt;
      packer.cells_ *= radix;
      packer.radices_.push_back(radix);
    }
    return packer;
  }

  std::size_t cells() const { return cells_; }

  /// Radix of attribute `i` (its dictionary size + 1).
  std::size_t radix(std::size_t i) const { return radices_[i]; }

  /// The digit of `code`: 0 for kNoValue, code + 1 otherwise (kNoValue is
  /// the largest AttrValueId, so `code + 1` wraps to 0 for it).
  static std::size_t Digit(AttrValueId code) {
    static_assert(kNoValue == std::numeric_limits<AttrValueId>::max());
    return static_cast<AttrValueId>(code + 1);
  }

  AttrTuple Unpack(std::size_t packed) const {
    std::array<std::size_t, AttrTuple::kMaxAttrs> digits = {};
    for (std::size_t i = radices_.size(); i-- > 0;) {
      digits[i] = packed % radices_[i];
      packed /= radices_[i];
    }
    AttrTuple tuple;
    for (std::size_t i = 0; i < radices_.size(); ++i) {
      tuple.Append(digits[i] == 0 ? kNoValue
                                  : static_cast<AttrValueId>(digits[i] - 1));
    }
    return tuple;
  }

 private:
  std::vector<std::size_t> radices_;
  std::size_t cells_ = 1;
};

/// The group code of every node a request reads. A code is the node's
/// packed tuple (DensePacker) when the attribute domain has fewer than 2^32
/// cells, and otherwise the index of the tuple among the distinct ones the
/// request meets; `kHidden` marks a (node, time) the filter hides.
///
/// The attribute columns are hoisted once per request, as one base pointer
/// per attribute and time point: the code of attribute i for node n at time
/// t is `at_time[t][n]`, where a time-varying column contributes its
/// per-time-point code arrays and a static column its one array at every t.
/// Two loads (the first hot) instead of a bounds-checked call. Static
/// attributes without a filter get one code per node: computed up front when
/// there are several (one load then replaces a multiply-add per attribute),
/// and read straight from the column for a single one (its digit is the
/// stored value + 1, so a pass over every node would only add work).
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
      : packer_(DensePacker::Create(graph, attrs, kHidden)),
        filter_(filter),
        per_appearance_(packer_.has_value() && !times.empty()),
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
      if (packer_.has_value()) columns_[num_attrs_].radix = packer_->radix(num_attrs_);
      ++num_attrs_;
    }
    if (packer_.has_value()) cells_ = packer_->cells();
    if (packer_.has_value() && times.empty() && num_attrs_ == 1) {
      node_codes_ = columns_[0].at_time[0];  // Digit(code) == code + 1
      node_offset_ = 1;
    } else if (!per_appearance_) {
      // Up front: one code per node (static), or one per node and time.
      GT_SPAN(span_name, {{"nodes", nodes}, {"slots", slots_}});
      slot_of_.assign(graph.num_times(), 0);
      for (std::uint32_t s = 0; s < times.size(); ++s) slot_of_[times[s]] = s;
      codes_.resize(nodes * slots_);
      if (packer_.has_value()) {  // static: pack on the pool
        ParallelPartition(nodes, kGroupMinPerChunk, /*alignment=*/1)
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
      node_codes_ = codes_.data();
    }
    if (packer_.has_value() && cells_ <= kDecodedCellsMax) {
      for (std::size_t code = 0; code < cells_; ++code) {
        tuples_.push_back(packer_->Unpack(code));
      }
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
  std::uint32_t At(NodeId n) const {
    return static_cast<std::uint32_t>(node_codes_[n] + node_offset_);
  }

  /// Number of distinct codes: every code is below it.
  std::size_t cells() const { return cells_; }

  AttrTuple Tuple(std::uint64_t code) const {
    return tuples_.empty() ? packer_->Unpack(code) : tuples_[code];
  }

  /// The code of `tuple`, or nullopt when no code stands for it: another
  /// arity, a value outside an attribute's dictionary, or (numbered tuples)
  /// a tuple no node carries at the constructor's time points.
  std::optional<std::uint32_t> CodeOf(const AttrTuple& tuple) const {
    if (tuple.size() != num_attrs_) return std::nullopt;
    if (!packer_.has_value()) {
      auto it = std::find(tuples_.begin(), tuples_.end(), tuple);
      if (it == tuples_.end()) return std::nullopt;
      return static_cast<std::uint32_t>(it - tuples_.begin());
    }
    std::size_t packed = 0;
    for (std::size_t i = 0; i < num_attrs_; ++i) {
      const std::size_t digit = DensePacker::Digit(tuple[i]);
      if (digit >= columns_[i].radix) return std::nullopt;
      packed = packed * columns_[i].radix + digit;
    }
    return static_cast<std::uint32_t>(packed);
  }

 private:
  /// Packed domains up to this many cells decode every code once, up front,
  /// so emitting thousands of edge groups costs two loads per group.
  static constexpr std::size_t kDecodedCellsMax = 4096;

  struct Column {
    const AttrValueId* const* at_time = nullptr;  // code of n at t: at_time[t][n]
    std::size_t radix = 0;  // the packer's radix of the attribute
  };

  AttrValueId Code(std::size_t i, NodeId n, TimeId t) const {
    return columns_[i].at_time[t][n];
  }
  std::uint32_t Pack(NodeId n, TimeId t) const {
    std::size_t packed = DensePacker::Digit(Code(0, n, t));
    for (std::size_t i = 1; i < num_attrs_; ++i) {
      packed = packed * columns_[i].radix + DensePacker::Digit(Code(i, n, t));
    }
    return static_cast<std::uint32_t>(packed);
  }
  bool Hidden(NodeId n, TimeId t) const { return filter_ != nullptr && !(*filter_)(n, t); }

  std::array<Column, AttrTuple::kMaxAttrs> columns_;
  std::size_t num_attrs_ = 0;
  // Per attribute, one code array per time point of the domain: the
  // time-varying column's own arrays, or the static column repeated.
  std::vector<const AttrValueId*> bases_;
  const std::optional<DensePacker> packer_;
  const NodeTimeFilter* const filter_;
  const bool per_appearance_;  // packed codes computed by At(n, t)
  const std::size_t slots_;
  std::vector<std::uint32_t> slot_of_;  // time point → slot of `codes_`
  std::vector<std::uint32_t> codes_;    // node-major, `slots_` per node
  const std::uint32_t* node_codes_ = nullptr;  // At(n): node_codes_[n] + node_offset_
  std::uint32_t node_offset_ = 0;
  std::size_t cells_ = 0;
  std::vector<AttrTuple> tuples_;  // code → tuple, when decoded up front
};

/// Calls `fn(code)` for the appearances of one entity: the set bits of its
/// presence `row` under the time `mask` (`words` words each), read as
/// `code_at(t)`, skipping those it hides (nullopt). With `seen` (DIST) only
/// the entity's first appearance of each code calls `fn`, deduplicated in
/// that scratch, which the caller reuses across entities; without it (ALL)
/// every appearance does.
template <typename CodeAt, typename Fn>
void ForEachAppearanceCode(const std::uint64_t* row, const std::uint64_t* mask,
                           std::size_t words, std::vector<std::uint64_t>* seen,
                           const CodeAt& code_at, const Fn& fn) {
  if (seen != nullptr) seen->clear();
  for (std::size_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = row[w] & mask[w]; bits != 0; bits &= bits - 1) {
      const std::optional<std::uint64_t> code =
          code_at(static_cast<TimeId>(w * 64 + std::countr_zero(bits)));
      if (!code.has_value()) continue;
      if (seen != nullptr) {
        if (std::find(seen->begin(), seen->end(), *code) != seen->end()) continue;
        seen->push_back(*code);
      }
      fn(*code);
    }
  }
}

/// One chunk's weights `W` per group code: a flat array over every code
/// when dense, a hash map on the code otherwise.
template <typename W>
class GroupWeights {
 public:
  GroupWeights() = default;
  GroupWeights(bool dense, std::uint64_t codes) : dense_(dense) {
    if (dense_) flat_.resize(codes);
  }

  W& Flat(std::uint64_t code) { return flat_[code]; }
  W& Hashed(std::uint64_t code) { return hashed_[code]; }

  /// Adds `part`, a table built with the same constructor arguments.
  void MergeFrom(const GroupWeights& part) {
    part.ForEach([&](std::uint64_t code, const W& weights) {
      (dense_ ? Flat(code) : Hashed(code)) += weights;
    });
  }

  std::size_t Groups() const {
    std::size_t groups = 0;
    ForEach([&](std::uint64_t, const W&) { ++groups; });
    return groups;
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
