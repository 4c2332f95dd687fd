#ifndef GRAPHTEMPO_STORAGE_BITSET_H_
#define GRAPHTEMPO_STORAGE_BITSET_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "util/check.h"

/// \file
/// `DynamicBitset`: a fixed-size, heap-allocated bitset with word-parallel set
/// algebra. It backs both the `IntervalSet` time dimension (a set of time
/// points) and entity sets inside the exploration engine, so the temporal
/// operators of the paper reduce to AND/OR/ANDNOT over machine words.

namespace graphtempo {

class DynamicBitset {
 public:
  /// Creates an empty (all-zero) bitset of `size` bits. `size` may be zero.
  explicit DynamicBitset(std::size_t size = 0);

  DynamicBitset(const DynamicBitset&) = default;
  DynamicBitset& operator=(const DynamicBitset&) = default;
  DynamicBitset(DynamicBitset&&) = default;
  DynamicBitset& operator=(DynamicBitset&&) = default;

  /// Number of bits the set can hold (not the number of set bits).
  std::size_t size() const { return size_; }

  /// Grows or shrinks the set to `size` bits. Existing bits up to
  /// min(old, new) are preserved; new bits start at 0; padding bits of the
  /// last word are kept zero so Count()/comparisons stay exact. Amortized
  /// O(1) for single-bit growth (vector growth is geometric). Growth within
  /// the last word is inline and only moves the size: the bits it exposes
  /// are the zero padding, so growing many sets by one bit stays cheap.
  void Resize(std::size_t size) {
    if (size >= size_ && size <= words_.size() * 64) {
      size_ = size;
      return;
    }
    ResizeWords(size);
  }

  /// Sets bit `index` to 1 (or to `value`).
  void Set(std::size_t index, bool value = true);

  /// Sets bit `index` to 0.
  void Reset(std::size_t index) { Set(index, false); }

  /// Sets every bit to 0.
  void Clear();

  /// Sets every bit to 1.
  void SetAll();

  /// Sets bits [first, last] (inclusive) to 1.
  void SetRange(std::size_t first, std::size_t last);

  /// Returns bit `index`.
  bool Test(std::size_t index) const;

  /// Number of set bits.
  std::size_t Count() const;

  /// True if at least one bit is set.
  bool Any() const;

  /// True if no bit is set.
  bool None() const { return !Any(); }

  /// Index of the lowest set bit; GT_CHECKs that the set is non-empty.
  std::size_t FirstSet() const;

  /// Index of the highest set bit; GT_CHECKs that the set is non-empty.
  std::size_t LastSet() const;

  /// True if `*this` and `other` share at least one set bit.
  bool Intersects(const DynamicBitset& other) const;

  /// True if every set bit of `*this` is also set in `other`.
  bool IsSubsetOf(const DynamicBitset& other) const;

  /// In-place intersection / union / difference. Sizes must match.
  DynamicBitset& operator&=(const DynamicBitset& other);
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator-=(const DynamicBitset& other);

  friend DynamicBitset operator&(DynamicBitset lhs, const DynamicBitset& rhs) {
    lhs &= rhs;
    return lhs;
  }
  friend DynamicBitset operator|(DynamicBitset lhs, const DynamicBitset& rhs) {
    lhs |= rhs;
    return lhs;
  }
  friend DynamicBitset operator-(DynamicBitset lhs, const DynamicBitset& rhs) {
    lhs -= rhs;
    return lhs;
  }

  bool operator==(const DynamicBitset& other) const = default;

  /// Calls `fn(index)` for every set bit in ascending order.
  /// `std::countr_zero` word iteration: each 64-bit word costs one
  /// count-trailing-zeros per *set* bit, never one probe per bit.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        int bit = std::countr_zero(word);
        fn(w * 64 + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

  /// Materializes the set bits as a sorted vector of indices.
  std::vector<std::size_t> ToIndexVector() const;

  /// Set bits as ascending 32-bit indices (entity ids are 32-bit). GT_CHECKs
  /// that the universe fits 32 bits. Uses the word-range extraction below.
  std::vector<std::uint32_t> ToIndices() const;

  /// Appends the indices of the set bits inside words [word_begin, word_end)
  /// to `out`, ascending. The building block of the parallel operator
  /// kernels: disjoint word ranges extract into per-chunk vectors that are
  /// concatenated in chunk order, so parallel extraction is bit-identical to
  /// a serial scan. Dispatches through the active compute backend
  /// (accel/backend.h). Returns the number of words examined.
  std::size_t AppendWordRangeIndices(std::size_t word_begin, std::size_t word_end,
                                     std::vector<std::uint32_t>& out) const;

  /// Number of set bits inside words [word_begin, word_end).
  std::size_t CountWordRange(std::size_t word_begin, std::size_t word_end) const;

  /// Raw word access for whole-set readers (interval comparison, snapshot
  /// compression).
  const std::vector<std::uint64_t>& words() const { return words_; }

  /// Mutable raw word access for the word-parallel kernels (fold loops write
  /// disjoint word ranges from different chunks). Callers must keep the
  /// padding bits of the last word zero.
  std::uint64_t* word_data() { return words_.data(); }
  const std::uint64_t* word_data() const { return words_.data(); }

  /// Number of 64-bit words backing the set.
  std::size_t num_words() const { return words_.size(); }

 private:
  void ResizeWords(std::size_t size);

  void CheckCompatible(const DynamicBitset& other) const {
    GT_CHECK_EQ(size_, other.size_) << "bitset size mismatch";
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace graphtempo

#endif  // GRAPHTEMPO_STORAGE_BITSET_H_
