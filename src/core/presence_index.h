#ifndef GRAPHTEMPO_CORE_PRESENCE_INDEX_H_
#define GRAPHTEMPO_CORE_PRESENCE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/bitset.h"
#include "storage/compressed_bitset.h"

/// \file
/// `PresenceIndex`: the one presence store of a `TemporalGraph` (the
/// paper's labeled presence arrays V and E, Section 4) — one `DynamicBitset`
/// over entities *per time point*, plus a sparse-table interval index of
/// precomputed column folds.
///
/// A point read "does entity e exist at t?" tests one column bit; the
/// per-entity scans of the grouping kernels read the columns a 64-entity
/// word at a time (core/grouping_internal.h). The question this
/// layout answers best is "which entities exist over interval T?", as pure
/// word-parallel set algebra:
///
///   * union over T       — OR of the T columns            (Defs 2.3)
///   * intersection over T— AND of the T columns           (Def 2.2 project)
///
/// and the temporal operators of Section 2 reduce to a handful of these
/// folds (see docs/KERNELS.md). The sparse tables store the fold of every
/// power-of-two-length window, so any *contiguous* interval folds in exactly
/// two column operations (the two windows overlap; OR and AND are
/// idempotent), independent of interval length. Non-contiguous interval sets
/// decompose into maximal runs, each answered from the table.
///
/// Maintenance is incremental: `TemporalGraph` writes every presence
/// mutation into the index (`Set`), every `AddNode`/`GetOrAddEdge` grows the
/// columns (`AddEntities`, amortized O(1)), and every `AppendTimePoint`
/// appends an empty column (`AddTimePoints`). The sparse tables are built
/// lazily on first fold query and invalidated by any mutation; concurrent
/// *queries* (e.g. exploration reference sweeps on the worker pool) may race
/// on the lazy build, which is guarded by a mutex + generation counter.
/// Queries concurrent with *mutation* are not supported — same contract as
/// every other container in the engine.
///
/// An index restored from a binary snapshot (`RestoreCompressed`) keeps its
/// columns RLE-compressed and decodes each one on first touch, so boot cost
/// is proportional to what the workload actually reads; kernels never see
/// compressed data. The decode race among concurrent readers is guarded by
/// the same mutex + per-column published flags (docs/STORAGE.md).

namespace graphtempo {

class PresenceIndex {
 public:
  explicit PresenceIndex(std::size_t num_times = 0);

  PresenceIndex(const PresenceIndex&) = delete;
  PresenceIndex& operator=(const PresenceIndex&) = delete;
  PresenceIndex(PresenceIndex&& other) noexcept;
  PresenceIndex& operator=(PresenceIndex&& other) noexcept;

  std::size_t num_times() const { return columns_.size(); }
  std::size_t num_entities() const { return entities_; }

  /// Appends `count` all-zero columns (new time points at the end).
  void AddTimePoints(std::size_t count = 1);

  /// Grows every column to hold `count` more entities (new bits zero).
  void AddEntities(std::size_t count = 1);

  /// Marks `entity` present at time `t`.
  void Set(std::size_t entity, std::size_t t);

  /// Replaces the index contents with `columns` (one compressed column per
  /// time point, each `entities` bits), kept compressed until first touch —
  /// the snapshot-load entry point. GT_CHECKs the per-column bit counts.
  void RestoreCompressed(std::size_t entities,
                         std::vector<storage::CompressedBitset> columns);

  /// Number of columns still compressed (0 once everything is decoded, or
  /// when the index was never snapshot-restored). Observability/tests.
  std::size_t compressed_columns() const {
    return compressed_remaining_.load(std::memory_order_relaxed);
  }

  /// The raw presence column of time `t` (a bitset over entities).
  const DynamicBitset& Column(std::size_t t) const;

  // --- Interval folds --------------------------------------------------------
  //
  // All folds return a bitset over entities. `times` masks are bitsets over
  // the time domain (`IntervalSet::bits()`); they must match `num_times()`.

  /// OR of columns [first, last] (inclusive): entities present at ≥1 time.
  /// Two table lookups for any length (sparse-table overlap trick).
  DynamicBitset UnionRange(std::size_t first, std::size_t last) const;

  /// AND of columns [first, last] (inclusive): entities present at every time.
  DynamicBitset IntersectRange(std::size_t first, std::size_t last) const;

  /// OR of the columns selected by `times` (maximal-run decomposition).
  /// An empty mask yields the empty entity set.
  DynamicBitset UnionOver(const DynamicBitset& times) const;

  /// AND of the columns selected by `times`. An empty mask yields the full
  /// entity set (vacuous truth: every entity is present at all times of an
  /// empty set).
  DynamicBitset IntersectionOver(const DynamicBitset& times) const;

  /// Entities present at ≥1 time of `times`, popcounted without
  /// materializing the fold — used by per-column statistics.
  std::size_t CountAt(std::size_t t) const;

  // --- Cardinality accessors (cost model inputs) -----------------------------
  //
  // The planner's cost model (engine/cost.h) needs "how much data would this
  // interval touch" without paying for an actual fold. Both accessors read a
  // lazily built per-column popcount cache — O(selected columns) array loads
  // after the first call, invalidated by any mutation like the fold tables.

  /// Σ over the selected times of the per-column popcounts: the number of
  /// (entity, time) appearances in the interval. This is the exact scan size
  /// of an ALL-semantics aggregation over the interval and an upper bound on
  /// the union-fold cardinality.
  std::size_t AppearancesOver(const DynamicBitset& times) const;

  /// Largest single-column popcount over the selected times (0 for an empty
  /// mask) — a lower bound on the union-fold cardinality and a proxy for the
  /// per-snapshot live-entity count.
  std::size_t MaxCountOver(const DynamicBitset& times) const;

  /// Forces the lazy sparse tables to be built now (both fold kinds). Useful
  /// before fanning queries out to worker threads so the guarded build does
  /// not serialize them; queries call it implicitly otherwise.
  void EnsureTables() const;

 private:
  enum class Fold : std::uint8_t { kOr, kAnd };

  struct Table {
    /// levels_[k-1][i] = fold of columns [i, i + 2^k) for k ≥ 1.
    std::vector<std::vector<DynamicBitset>> levels_;
    std::atomic<std::uint64_t> built_generation{0};
  };

  void Invalidate() { generation_.fetch_add(1, std::memory_order_relaxed); }
  void EnsureTable(Fold fold) const;

  /// Decodes column `t` (or every column) if still compressed. Lock-free
  /// no-op once everything is decoded; otherwise decodes under `mutex_`.
  /// Must be called *before* acquiring `mutex_` (it locks internally).
  void EnsureDecoded(std::size_t t) const;
  void EnsureDecodedAll() const;
  void DecodeColumnLocked(std::size_t t) const;

  /// Builds the per-column popcount cache if stale (mutex + generation
  /// guarded, same protocol as the fold tables).
  void EnsureCounts() const;
  Table& table(Fold fold) const { return fold == Fold::kOr ? or_table_ : and_table_; }

  /// Fold of columns [first, last] via the (already built) sparse table.
  DynamicBitset FoldRange(Fold fold, std::size_t first, std::size_t last) const;

  std::size_t entities_ = 0;
  /// Mutable: a snapshot-restored column materializes in place on first
  /// touch from a const accessor (logically the value never changes).
  mutable std::vector<DynamicBitset> columns_;

  /// Snapshot-restored columns not yet decoded. `compressed_remaining_` is
  /// the readers' lock-free fast path: 0 (the steady state) means every
  /// column is live and `decoded_`/`compressed_` are never consulted.
  mutable std::vector<storage::CompressedBitset> compressed_;
  mutable std::unique_ptr<std::atomic<std::uint8_t>[]> decoded_;
  mutable std::atomic<std::size_t> compressed_remaining_{0};

  /// Bumped on every mutation; tables with a stale built_generation rebuild
  /// lazily under `mutex_`.
  std::atomic<std::uint64_t> generation_{1};
  mutable Table or_table_;
  mutable Table and_table_;

  /// Per-column popcounts, built lazily like the fold tables.
  mutable std::vector<std::size_t> counts_;
  mutable std::atomic<std::uint64_t> counts_generation_{0};

  std::unique_ptr<std::mutex> mutex_;
};

}  // namespace graphtempo

#endif  // GRAPHTEMPO_CORE_PRESENCE_INDEX_H_
