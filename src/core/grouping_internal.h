#ifndef GRAPHTEMPO_CORE_GROUPING_INTERNAL_H_
#define GRAPHTEMPO_CORE_GROUPING_INTERNAL_H_

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/aggregation.h"

/// \file
/// Group-code packing shared by Algorithm 2 (core/aggregation.cc) and the
/// evolution aggregation (core/evolution.cc). Not part of the public API.

namespace graphtempo::internal_grouping {

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

  /// The digit of `code`: 0 for kNoValue, code + 1 otherwise.
  static std::size_t Digit(AttrValueId code) {
    return code == kNoValue ? 0 : static_cast<std::size_t>(code) + 1;
  }

  std::size_t Pack(const AttrTuple& tuple) const {
    GT_DCHECK(tuple.size() == radices_.size());
    std::size_t packed = 0;
    for (std::size_t i = 0; i < radices_.size(); ++i) {
      const std::size_t digit = Digit(tuple[i]);
      GT_DCHECK(digit < radices_[i]);
      packed = packed * radices_[i] + digit;
    }
    return packed;
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

}  // namespace graphtempo::internal_grouping

#endif  // GRAPHTEMPO_CORE_GROUPING_INTERNAL_H_
