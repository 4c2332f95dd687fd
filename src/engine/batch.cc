#include "engine/batch.h"

#include <shared_mutex>
#include <utility>

#include "engine/engine.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace graphtempo::engine {

namespace {

obs::Counter& BatchExecCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/batch_exec");
  return c;
}
obs::Counter& BatchQueriesCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/batch_queries");
  return c;
}
obs::Counter& BatchMergedCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/batch_merged");
  return c;
}
obs::Counter& BatchFoldHitCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/batch_fold_hits");
  return c;
}
obs::Counter& BatchFoldMissCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/batch_fold_misses");
  return c;
}

}  // namespace

const DynamicBitset& FoldCache::Lookup(const PresenceIndex& index,
                                       const DynamicBitset& times, bool union_fold) {
  // Normalize the mask to its trimmed word vector: two bitsets naming the
  // same time points can differ in trailing zero words (e.g. one sized to
  // the fold's interval, one to the whole time domain), and comparing the
  // raw vectors would spuriously miss on the second request.
  std::vector<std::uint64_t> words = times.words();
  while (!words.empty() && words.back() == 0) words.pop_back();
  Key key{&index, union_fold, std::move(words)};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  DynamicBitset fold =
      union_fold ? index.UnionOver(times) : index.IntersectionOver(times);
  auto [inserted, ok] = entries_.emplace(std::move(key), std::move(fold));
  GT_CHECK(ok);
  return inserted->second;
}

const DynamicBitset& FoldCache::UnionFold(const PresenceIndex& index,
                                          const DynamicBitset& times) {
  return Lookup(index, times, /*union_fold=*/true);
}

const DynamicBitset& FoldCache::IntersectionFold(const PresenceIndex& index,
                                                 const DynamicBitset& times) {
  return Lookup(index, times, /*union_fold=*/false);
}

std::vector<QueryResult> QueryEngine::ExecuteBatch(std::span<const BatchItem> items) {
  std::vector<QueryResult> results(items.size());
  if (items.empty()) return results;
  BatchExecCounter().Increment();
  GT_SPAN("engine/batch", {{"items", items.size()}});

  // One reader lock for the whole batch: every item sees the same frozen
  // graph/store, which is what makes merging and fold sharing sound.
  std::shared_lock<std::shared_mutex> reader(state_mutex_);
  FoldCache folds;

  std::vector<std::uint64_t> fingerprints(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    GT_CHECK(items[i].spec != nullptr) << "batch item without a spec";
    fingerprints[i] = items[i].spec->Fingerprint();
  }

  std::vector<bool> done(items.size(), false);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (done[i]) continue;
    BatchQueriesCounter().Increment();
    QueryPlan local_plan;
    QueryPlan* plan = items[i].plan != nullptr ? items[i].plan : &local_plan;
    const std::uint64_t hits_before = folds.hits();
    const std::uint64_t misses_before = folds.misses();
    {
      // Bind this item's request context so the engine's attribution (route,
      // cache outcome, fingerprint) lands on the right request.
      obs::ScopedRequestContext bind(items[i].ctx);
      if (items[i].ctx != nullptr) {
        items[i].ctx->batched.store(true, std::memory_order_relaxed);
      }
      results[i] = ExecuteLocked(*items[i].spec, PlanOptions{}, &folds, plan);
    }
    if (items[i].ctx != nullptr) {
      items[i].ctx->shared_fold_hits.fetch_add(folds.hits() - hits_before,
                                               std::memory_order_relaxed);
      items[i].ctx->shared_fold_misses.fetch_add(folds.misses() - misses_before,
                                                 std::memory_order_relaxed);
    }
    done[i] = true;

    // Fan the answer out to every equivalent later item. Only cacheable
    // specs merge: an opaque filter makes two syntactically equal specs
    // incomparable (pointer-identity equality notwithstanding, merging
    // filtered specs would skip their bypass accounting).
    if (!items[i].spec->Cacheable()) continue;
    for (std::size_t j = i + 1; j < items.size(); ++j) {
      if (done[j] || fingerprints[j] != fingerprints[i]) continue;
      if (!items[j].spec->Cacheable() ||
          !items[j].spec->EquivalentTo(*items[i].spec)) {
        continue;
      }
      results[j] = results[i];
      // An equivalent spec plans alike: item i's plan is item j's.
      if (items[j].plan != nullptr) *items[j].plan = *plan;
      done[j] = true;
      BatchQueriesCounter().Increment();
      BatchMergedCounter().Increment();
      if (items[j].ctx != nullptr) {
        items[j].ctx->batched.store(true, std::memory_order_relaxed);
        items[j].ctx->fingerprint.store(fingerprints[j], std::memory_order_relaxed);
        items[j].ctx->cache.store("hit", std::memory_order_relaxed);
        if (items[i].ctx != nullptr) {
          // The merged answer came from item i's execution: its route and
          // planner attribution are this item's too (the slow-query record
          // requires both to be non-empty).
          items[j].ctx->route.store(
              items[i].ctx->route.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
          items[j].ctx->planner.store(
              items[i].ctx->planner.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
        }
      }
    }
  }

  // Registry totals once per batch (cheaper than per-fold increments and the
  // numbers the CI gate asserts on).
  BatchFoldHitCounter().Add(folds.hits());
  BatchFoldMissCounter().Add(folds.misses());
  return results;
}

}  // namespace graphtempo::engine
