#include "storage/bitset.h"

#include <bit>

#include "accel/backend.h"

// The word-streaming operations (set algebra, popcounts, index extraction)
// dispatch through the runtime-selected compute backend (accel/backend.h);
// the backends rely on this class keeping the padding bits of a trailing
// partial word zero (Resize/SetAll below enforce it). Short-circuiting
// predicates (Any/Intersects/IsSubsetOf) stay as plain loops: they exit on
// the first interesting word, which a streaming kernel cannot.

namespace graphtempo {

namespace {

constexpr std::size_t kWordBits = 64;

std::size_t WordsFor(std::size_t bits) { return (bits + kWordBits - 1) / kWordBits; }

}  // namespace

DynamicBitset::DynamicBitset(std::size_t size) : size_(size), words_(WordsFor(size), 0) {}

void DynamicBitset::ResizeWords(std::size_t size) {
  words_.resize(WordsFor(size), 0);
  size_ = size;
  // Clear padding bits (relevant on shrink, harmless on growth).
  std::size_t used = size_ % kWordBits;
  if (used != 0) {
    words_.back() &= (std::uint64_t{1} << used) - 1;
  }
}

void DynamicBitset::Set(std::size_t index, bool value) {
  GT_CHECK_LT(index, size_) << "bit index out of range";
  std::uint64_t mask = std::uint64_t{1} << (index % kWordBits);
  if (value) {
    words_[index / kWordBits] |= mask;
  } else {
    words_[index / kWordBits] &= ~mask;
  }
}

void DynamicBitset::Clear() { std::fill(words_.begin(), words_.end(), 0); }

void DynamicBitset::SetAll() {
  if (size_ == 0) return;
  std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
  // Clear the padding bits in the last word so Count()/comparisons stay exact.
  std::size_t used = size_ % kWordBits;
  if (used != 0) {
    words_.back() &= (std::uint64_t{1} << used) - 1;
  }
}

void DynamicBitset::SetRange(std::size_t first, std::size_t last) {
  GT_CHECK_LE(first, last);
  GT_CHECK_LT(last, size_) << "range end out of bounds";
  for (std::size_t i = first; i <= last; ++i) Set(i);
}

bool DynamicBitset::Test(std::size_t index) const {
  GT_CHECK_LT(index, size_) << "bit index out of range";
  return (words_[index / kWordBits] >> (index % kWordBits)) & 1;
}

std::size_t DynamicBitset::Count() const {
  return accel::ActiveBackend().popcount(words_.data(), words_.size());
}

bool DynamicBitset::Any() const {
  for (std::uint64_t word : words_) {
    if (word != 0) return true;
  }
  return false;
}

std::size_t DynamicBitset::FirstSet() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  GT_CHECK(false) << "FirstSet() on empty bitset";
  __builtin_unreachable();
}

std::size_t DynamicBitset::LastSet() const {
  for (std::size_t w = words_.size(); w-- > 0;) {
    if (words_[w] != 0) {
      return w * kWordBits + (kWordBits - 1 -
                              static_cast<std::size_t>(std::countl_zero(words_[w])));
    }
  }
  GT_CHECK(false) << "LastSet() on empty bitset";
  __builtin_unreachable();
}

bool DynamicBitset::Intersects(const DynamicBitset& other) const {
  CheckCompatible(other);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if ((words_[w] & other.words_[w]) != 0) return true;
  }
  return false;
}

bool DynamicBitset::IsSubsetOf(const DynamicBitset& other) const {
  CheckCompatible(other);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if ((words_[w] & ~other.words_[w]) != 0) return false;
  }
  return true;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  CheckCompatible(other);
  accel::ActiveBackend().range_and(words_.data(), other.words_.data(), words_.size());
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  CheckCompatible(other);
  accel::ActiveBackend().range_or(words_.data(), other.words_.data(), words_.size());
  return *this;
}

DynamicBitset& DynamicBitset::operator-=(const DynamicBitset& other) {
  CheckCompatible(other);
  accel::ActiveBackend().range_andnot(words_.data(), other.words_.data(),
                                      words_.size());
  return *this;
}

std::vector<std::size_t> DynamicBitset::ToIndexVector() const {
  std::vector<std::size_t> indices;
  indices.reserve(Count());
  ForEachSetBit([&](std::size_t i) { indices.push_back(i); });
  return indices;
}

std::vector<std::uint32_t> DynamicBitset::ToIndices() const {
  GT_CHECK_LE(size_, std::size_t{0xFFFFFFFFu}) << "universe exceeds 32-bit indices";
  std::vector<std::uint32_t> indices;
  indices.reserve(Count());
  AppendWordRangeIndices(0, words_.size(), indices);
  return indices;
}

std::size_t DynamicBitset::CountWordRange(std::size_t word_begin,
                                          std::size_t word_end) const {
  GT_DCHECK(word_end <= words_.size());
  return accel::ActiveBackend().popcount(words_.data() + word_begin,
                                         word_end - word_begin);
}

std::size_t DynamicBitset::AppendWordRangeIndices(std::size_t word_begin,
                                                  std::size_t word_end,
                                                  std::vector<std::uint32_t>& out) const {
  GT_DCHECK(word_end <= words_.size());
  accel::ActiveBackend().extract_indices(words_.data(), word_begin, word_end, out);
  return word_end - word_begin;
}

}  // namespace graphtempo
