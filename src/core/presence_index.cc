#include "core/presence_index.h"

#include <bit>
#include <utility>

#include "accel/backend.h"
#include "core/stats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace graphtempo {

namespace {

/// Words per chunk below which a fold runs inline. Folding is pure streaming
/// OR/AND, so chunks need to be large to earn their dispatch.
constexpr std::size_t kFoldMinWordsPerChunk = 4096;

/// dst[w] op= src[w] over disjoint word ranges — the word-parallel combine
/// every kernel bottoms out in, dispatched through the active compute
/// backend (accel/backend.h). Each chunk owns a disjoint word range and
/// bitwise ops are per-word pure functions, so the result is identical at
/// any thread count and on every backend. Counts the words it scanned.
template <typename RangeOp>
void CombineWords(DynamicBitset& dst, const DynamicBitset& src, RangeOp range_op) {
  GT_DCHECK(dst.num_words() == src.num_words());
  std::uint64_t* wd = dst.word_data();
  const std::uint64_t* ws = src.word_data();
  const std::size_t words = dst.num_words();
  ParallelPartition partition(words, kFoldMinWordsPerChunk, /*alignment=*/1);
  partition.Run([&](std::size_t, std::size_t begin, std::size_t end) {
    range_op(wd + begin, ws + begin, end - begin);
  });
  internal_counters::AddKernelWords(2 * words);
}

void OrInto(DynamicBitset& out, const DynamicBitset& src) {
  CombineWords(out, src, accel::ActiveBackend().range_or);
}

void AndInto(DynamicBitset& out, const DynamicBitset& src) {
  CombineWords(out, src, accel::ActiveBackend().range_and);
}

/// Fused interval fold: out = a op b in one streaming pass, instead of
/// copying `a` and combining `b` into the copy (which streams the words an
/// extra time through the copy constructor).
template <typename FoldOp>
DynamicBitset FoldInto(const DynamicBitset& a, const DynamicBitset& b,
                       FoldOp fold_op) {
  GT_DCHECK(a.num_words() == b.num_words());
  DynamicBitset out(a.size());
  const std::uint64_t* wa = a.word_data();
  const std::uint64_t* wb = b.word_data();
  std::uint64_t* wo = out.word_data();
  const std::size_t words = out.num_words();
  ParallelPartition partition(words, kFoldMinWordsPerChunk, /*alignment=*/1);
  partition.Run([&](std::size_t, std::size_t begin, std::size_t end) {
    fold_op(wa + begin, wb + begin, wo + begin, end - begin);
  });
  internal_counters::AddKernelWords(2 * words);
  return out;
}

}  // namespace

PresenceIndex::PresenceIndex(std::size_t num_times)
    : columns_(num_times), mutex_(std::make_unique<std::mutex>()) {}

PresenceIndex::PresenceIndex(PresenceIndex&& other) noexcept
    : entities_(other.entities_),
      columns_(std::move(other.columns_)),
      compressed_(std::move(other.compressed_)),
      decoded_(std::move(other.decoded_)),
      compressed_remaining_(
          other.compressed_remaining_.load(std::memory_order_relaxed)),
      generation_(other.generation_.load(std::memory_order_relaxed)),
      mutex_(std::move(other.mutex_)) {
  other.compressed_remaining_.store(0, std::memory_order_relaxed);
  or_table_.levels_ = std::move(other.or_table_.levels_);
  or_table_.built_generation.store(
      other.or_table_.built_generation.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  and_table_.levels_ = std::move(other.and_table_.levels_);
  and_table_.built_generation.store(
      other.and_table_.built_generation.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  counts_ = std::move(other.counts_);
  counts_generation_.store(
      other.counts_generation_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

PresenceIndex& PresenceIndex::operator=(PresenceIndex&& other) noexcept {
  if (this == &other) return *this;
  entities_ = other.entities_;
  columns_ = std::move(other.columns_);
  compressed_ = std::move(other.compressed_);
  decoded_ = std::move(other.decoded_);
  compressed_remaining_.store(
      other.compressed_remaining_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  other.compressed_remaining_.store(0, std::memory_order_relaxed);
  generation_.store(other.generation_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  or_table_.levels_ = std::move(other.or_table_.levels_);
  or_table_.built_generation.store(
      other.or_table_.built_generation.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  and_table_.levels_ = std::move(other.and_table_.levels_);
  and_table_.built_generation.store(
      other.and_table_.built_generation.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  counts_ = std::move(other.counts_);
  counts_generation_.store(
      other.counts_generation_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  mutex_ = std::move(other.mutex_);
  return *this;
}

void PresenceIndex::AddTimePoints(std::size_t count) {
  EnsureDecodedAll();
  for (std::size_t i = 0; i < count; ++i) columns_.emplace_back(entities_);
  Invalidate();
}

void PresenceIndex::AddEntities(std::size_t count) {
  EnsureDecodedAll();
  entities_ += count;
  for (DynamicBitset& column : columns_) column.Resize(entities_);
  // New entities are absent everywhere; existing folds stay correct for the
  // old entity range but the bitset sizes changed — invalidate.
  Invalidate();
}

void PresenceIndex::Set(std::size_t entity, std::size_t t) {
  GT_CHECK_LT(t, columns_.size()) << "time out of range";
  GT_CHECK_LT(entity, entities_) << "entity out of range";
  EnsureDecoded(t);
  columns_[t].Set(entity);
  Invalidate();
}

void PresenceIndex::RestoreCompressed(
    std::size_t entities, std::vector<storage::CompressedBitset> columns) {
  for (const storage::CompressedBitset& column : columns) {
    GT_CHECK_EQ(column.size_bits(), entities) << "compressed column size mismatch";
  }
  entities_ = entities;
  columns_.assign(columns.size(), DynamicBitset());  // placeholders until decode
  compressed_ = std::move(columns);
  decoded_.reset(compressed_.empty()
                     ? nullptr
                     : new std::atomic<std::uint8_t>[compressed_.size()]());
  compressed_remaining_.store(compressed_.size(), std::memory_order_release);
  Invalidate();
}

void PresenceIndex::DecodeColumnLocked(std::size_t t) const {
  if (decoded_[t].load(std::memory_order_relaxed) != 0) return;
  static obs::Counter& decodes =
      obs::Registry::Instance().GetCounter("storage/bitset_decode");
  columns_[t] = compressed_[t].Decompress();
  compressed_[t] = storage::CompressedBitset();  // free the encoded words
  decodes.Increment();
  decoded_[t].store(1, std::memory_order_release);
  compressed_remaining_.fetch_sub(1, std::memory_order_acq_rel);
}

void PresenceIndex::EnsureDecoded(std::size_t t) const {
  if (compressed_remaining_.load(std::memory_order_acquire) == 0) return;
  if (decoded_[t].load(std::memory_order_acquire) != 0) return;
  std::lock_guard<std::mutex> lock(*mutex_);
  DecodeColumnLocked(t);
}

void PresenceIndex::EnsureDecodedAll() const {
  if (compressed_remaining_.load(std::memory_order_acquire) == 0) return;
  std::lock_guard<std::mutex> lock(*mutex_);
  for (std::size_t t = 0; t < columns_.size(); ++t) DecodeColumnLocked(t);
}

const DynamicBitset& PresenceIndex::Column(std::size_t t) const {
  GT_CHECK_LT(t, columns_.size()) << "time out of range";
  EnsureDecoded(t);
  return columns_[t];
}

std::size_t PresenceIndex::CountAt(std::size_t t) const { return Column(t).Count(); }

void PresenceIndex::EnsureCounts() const {
  const std::uint64_t current = generation_.load(std::memory_order_relaxed);
  if (counts_generation_.load(std::memory_order_acquire) == current) return;
  EnsureDecodedAll();  // before taking mutex_ — it locks internally
  std::lock_guard<std::mutex> lock(*mutex_);
  if (counts_generation_.load(std::memory_order_relaxed) == current) return;
  counts_.resize(columns_.size());
  for (std::size_t t = 0; t < columns_.size(); ++t) counts_[t] = columns_[t].Count();
  counts_generation_.store(current, std::memory_order_release);
}

std::size_t PresenceIndex::AppearancesOver(const DynamicBitset& times) const {
  GT_CHECK_EQ(times.size(), columns_.size()) << "time mask/domain mismatch";
  EnsureCounts();
  std::size_t total = 0;
  times.ForEachSetBit([&](std::size_t t) { total += counts_[t]; });
  return total;
}

std::size_t PresenceIndex::MaxCountOver(const DynamicBitset& times) const {
  GT_CHECK_EQ(times.size(), columns_.size()) << "time mask/domain mismatch";
  EnsureCounts();
  std::size_t max_count = 0;
  times.ForEachSetBit([&](std::size_t t) {
    if (counts_[t] > max_count) max_count = counts_[t];
  });
  return max_count;
}

void PresenceIndex::EnsureTables() const {
  EnsureTable(Fold::kOr);
  EnsureTable(Fold::kAnd);
}

void PresenceIndex::EnsureTable(Fold fold) const {
  Table& t = table(fold);
  const std::uint64_t current = generation_.load(std::memory_order_relaxed);
  if (t.built_generation.load(std::memory_order_acquire) == current) return;
  EnsureDecodedAll();  // before taking mutex_ — it locks internally
  std::lock_guard<std::mutex> lock(*mutex_);
  if (t.built_generation.load(std::memory_order_relaxed) == current) return;

  GT_SPAN(fold == Fold::kOr ? "presence/build_or_table"
                            : "presence/build_and_table",
          {{"times", columns_.size()}});
  const std::size_t n = columns_.size();
  t.levels_.clear();
  if (n >= 2) {
    const std::size_t num_levels =
        static_cast<std::size_t>(std::bit_width(n) - 1);  // floor(log2 n)
    t.levels_.reserve(num_levels);
    for (std::size_t k = 1; k <= num_levels; ++k) {
      const std::size_t window = std::size_t{1} << k;
      const std::size_t half = window / 2;
      const std::vector<DynamicBitset>& prev =
          k == 1 ? columns_ : t.levels_[k - 2];
      std::vector<DynamicBitset> level;
      level.reserve(n - window + 1);
      const auto& backend = accel::ActiveBackend();
      for (std::size_t i = 0; i + window <= n; ++i) {
        level.push_back(fold == Fold::kOr
                            ? FoldInto(prev[i], prev[i + half], backend.fold_or)
                            : FoldInto(prev[i], prev[i + half], backend.fold_and));
      }
      t.levels_.push_back(std::move(level));
    }
  }
  t.built_generation.store(current, std::memory_order_release);
}

DynamicBitset PresenceIndex::FoldRange(Fold fold, std::size_t first,
                                       std::size_t last) const {
  GT_DCHECK(first <= last && last < columns_.size());
  const std::size_t len = last - first + 1;
  GT_SPAN(fold == Fold::kOr ? "presence/fold_or" : "presence/fold_and",
          {{"len", len}});
  if (len == 1) {
    internal_counters::AddIntervalIndex(/*hits=*/0, /*misses=*/1);
    EnsureDecoded(first);
    return columns_[first];
  }
  EnsureTable(fold);
  const Table& t = table(fold);
  // floor(log2 len) — the largest power-of-two window fitting the range.
  const std::size_t k = static_cast<std::size_t>(std::bit_width(len) - 1);
  const std::size_t window = std::size_t{1} << k;
  const std::vector<DynamicBitset>& level = t.levels_[k - 1];
  internal_counters::AddIntervalIndex(/*hits=*/1, /*misses=*/0);
  const DynamicBitset& tail = level[last + 1 - window];
  const auto& backend = accel::ActiveBackend();
  return fold == Fold::kOr ? FoldInto(level[first], tail, backend.fold_or)
                           : FoldInto(level[first], tail, backend.fold_and);
}

DynamicBitset PresenceIndex::UnionRange(std::size_t first, std::size_t last) const {
  GT_CHECK_LE(first, last);
  GT_CHECK_LT(last, columns_.size()) << "time out of range";
  return FoldRange(Fold::kOr, first, last);
}

DynamicBitset PresenceIndex::IntersectRange(std::size_t first, std::size_t last) const {
  GT_CHECK_LE(first, last);
  GT_CHECK_LT(last, columns_.size()) << "time out of range";
  return FoldRange(Fold::kAnd, first, last);
}

namespace {

/// Calls `fn(first, last)` for every maximal run of consecutive set bits in
/// `times`, ascending.
template <typename Fn>
void ForEachRun(const DynamicBitset& times, Fn&& fn) {
  bool in_run = false;
  std::size_t run_first = 0;
  std::size_t prev = 0;
  times.ForEachSetBit([&](std::size_t t) {
    if (!in_run) {
      in_run = true;
      run_first = t;
    } else if (t != prev + 1) {
      fn(run_first, prev);
      run_first = t;
    }
    prev = t;
  });
  if (in_run) fn(run_first, prev);
}

}  // namespace

DynamicBitset PresenceIndex::UnionOver(const DynamicBitset& times) const {
  GT_CHECK_EQ(times.size(), columns_.size()) << "time mask/domain mismatch";
  DynamicBitset result(entities_);
  bool first_run = true;
  ForEachRun(times, [&](std::size_t first, std::size_t last) {
    if (first_run) {
      result = FoldRange(Fold::kOr, first, last);
      first_run = false;
    } else {
      OrInto(result, FoldRange(Fold::kOr, first, last));
    }
  });
  return result;
}

DynamicBitset PresenceIndex::IntersectionOver(const DynamicBitset& times) const {
  GT_CHECK_EQ(times.size(), columns_.size()) << "time mask/domain mismatch";
  DynamicBitset result(entities_);
  if (times.None()) {
    // Vacuous truth: every entity is present "at all times" of an empty set.
    result.SetAll();
    return result;
  }
  bool first_run = true;
  ForEachRun(times, [&](std::size_t first, std::size_t last) {
    if (first_run) {
      result = FoldRange(Fold::kAnd, first, last);
      first_run = false;
    } else {
      AndInto(result, FoldRange(Fold::kAnd, first, last));
    }
  });
  return result;
}

}  // namespace graphtempo
