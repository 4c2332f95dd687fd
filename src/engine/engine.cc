#include "engine/engine.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "core/graph_snapshot.h"
#include "engine/batch.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace graphtempo::engine {

namespace {

/// Registry counters mirrored from CacheStats / routing decisions. Cached in
/// statics: metric creation locks, updates are lock-free.
obs::Counter& QueriesCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/queries");
  return c;
}
obs::Counter& RouteDirectCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/route_direct");
  return c;
}
obs::Counter& RouteMaterializedCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/route_materialized");
  return c;
}
obs::Counter& CacheHitCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/cache_hit");
  return c;
}
obs::Counter& CacheMissCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/cache_miss");
  return c;
}
obs::Counter& CacheBypassCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/cache_bypass");
  return c;
}
obs::Counter& CacheEvictCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/cache_evict");
  return c;
}
obs::Counter& CacheInvalidateCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/cache_invalidate");
  return c;
}
obs::Counter& StaleFallbackCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/stale_fallback");
  return c;
}
obs::Counter& CostPlanCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/cost_plan");
  return c;
}
obs::Counter& CostRouteFlipCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/cost_route_flip");
  return c;
}
obs::Counter& LayerSpillCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/layer_spill");
  return c;
}
obs::Counter& LayerReloadCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/layer_reload");
  return c;
}
obs::Counter& ResultSpillCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/result_spill");
  return c;
}
obs::Counter& ResultReloadCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("engine/result_reload");
  return c;
}

std::string HexFingerprint(std::uint64_t fingerprint) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[fingerprint & 0xF];
    fingerprint >>= 4;
  }
  return out;
}

bool UsesT2(TemporalOperatorKind op) { return op != TemporalOperatorKind::kProject; }

std::string JoinAttrNames(const TemporalGraph& graph, std::span<const AttrRef> attrs) {
  std::string out;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    if (i != 0) out += ",";
    out += graph.attribute_name(attrs[i]);
  }
  return out;
}

std::string JoinPositions(std::span<const std::size_t> positions) {
  std::string out = "[";
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(positions[i]);
  }
  out += "]";
  return out;
}

/// The step-kind → span-name map. GT_SPAN names must be string literals, so
/// the dynamic PlanStep::kind is mirrored by a fixed table here; Explain and
/// trace output stay one-to-one.
const char* OperatorSpanName(TemporalOperatorKind op) {
  switch (op) {
    case TemporalOperatorKind::kProject: return "engine/operator/project";
    case TemporalOperatorKind::kUnion: return "engine/operator/union";
    case TemporalOperatorKind::kIntersection: return "engine/operator/intersection";
    case TemporalOperatorKind::kDifference: return "engine/operator/difference";
  }
  return "engine/operator";
}

}  // namespace

QueryEngine::QueryEngine(const TemporalGraph* graph, Config config)
    : graph_(graph), config_(std::move(config)) {
  GT_CHECK(graph_ != nullptr);
  if (!config_.spill_dir.empty()) {
    spill_ = std::make_unique<storage::SpillDirectory>(config_.spill_dir);
    GT_CHECK(spill_->ok()) << spill_->error();
  }
}

std::unique_lock<std::shared_mutex> QueryEngine::AcquireWriterLock() const {
  return std::unique_lock<std::shared_mutex>(state_mutex_);
}

void QueryEngine::EnableMaterialization(std::vector<AttrRef> attrs) {
  std::unique_lock<std::shared_mutex> writer(state_mutex_);
  if (store_.has_value()) {
    GT_CHECK(store_->attrs() == attrs)
        << "materialization already enabled over a different attribute list";
    store_->MaterializeAllTimePoints();
    return;
  }
  GT_CHECK(!attrs.empty()) << "materialization needs at least one attribute";
  GT_CHECK_LE(attrs.size(), AttrTuple::kMaxAttrs) << "too many base attributes";
  store_.emplace(graph_, std::move(attrs));
  store_->MaterializeAllTimePoints();
}

bool QueryEngine::materialization_enabled() const {
  std::shared_lock<std::shared_mutex> reader(state_mutex_);
  return store_.has_value();
}

const std::vector<AttrRef>& QueryEngine::materialized_attrs() const {
  std::shared_lock<std::shared_mutex> reader(state_mutex_);
  GT_CHECK(store_.has_value()) << "materialization is not enabled";
  return store_->attrs();
}

void QueryEngine::Refresh() {
  std::unique_lock<std::shared_mutex> writer(state_mutex_);
  if (!store_.has_value()) return;
  store_->Refresh();
  const std::size_t num_times = graph_->num_times();
  for (auto it = subset_layers_.begin(); it != subset_layers_.end();) {
    auto& [mask, entry] = *it;
    // Recover the canonical subset positions from the mask.
    std::vector<std::size_t> keep;
    for (std::size_t position = 0; position < store_->attrs().size(); ++position) {
      if ((mask >> position) & 1u) keep.push_back(position);
    }
    // The exclusive writer lock guarantees no reader holds a pin, so spilled
    // entries can be rewritten in place: reload, extend, spill back. A layer
    // whose spill file went bad is dropped (it will be rebuilt on demand).
    std::vector<AggregateGraph>* layer = entry->data.get();
    std::vector<AggregateGraph> reloaded;
    if (layer == nullptr) {
      bool ok = false;
      if (spill_ != nullptr) {
        if (std::optional<std::string> bytes = spill_->Get(LayerSpillKey(mask))) {
          std::string decode_error;
          ok = DecodeAggregateGraphs(*bytes, &reloaded, &decode_error);
        }
      }
      if (!ok) {
        if (spill_ != nullptr) spill_->Remove(LayerSpillKey(mask));
        it = subset_layers_.erase(it);
        continue;
      }
      layer = &reloaded;
    }
    for (TimeId t = static_cast<TimeId>(layer->size()); t < num_times; ++t) {
      layer->push_back(RollUp(store_->AtTimePoint(t), keep));
      derivation_stats_.rollups.fetch_add(1, std::memory_order_relaxed);
    }
    if (layer == &reloaded) {
      spill_->Put(LayerSpillKey(mask), EncodeAggregateGraphs(reloaded));
    }
    ++it;
  }
  // Per-entry sweep: only results whose dependency time points were actually
  // touched are stale; append-only growth leaves old intervals' answers
  // valid, so they stay resident and keep hitting.
  for (CacheShard& shard : cache_shards_) {
    std::unique_lock<std::shared_mutex> cache_writer(shard.mutex);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (!EntryValid(*it->second)) {
        it = shard.entries.erase(it);
        cache_size_.fetch_sub(1, std::memory_order_relaxed);
        cache_stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
        CacheInvalidateCounter().Increment();
      } else {
        ++it;
      }
    }
  }
}

bool QueryEngine::MapToBasePositions(const QuerySpec& spec,
                                     std::vector<std::size_t>* keep) const {
  if (!store_.has_value()) return false;
  const std::vector<AttrRef>& base = store_->attrs();
  std::vector<std::size_t> positions;
  positions.reserve(spec.attrs.size());
  for (const AttrRef& ref : spec.attrs) {
    auto it = std::find(base.begin(), base.end(), ref);
    if (it == base.end()) return false;  // attribute not materialized
    const std::size_t position = static_cast<std::size_t>(it - base.begin());
    if (std::find(positions.begin(), positions.end(), position) != positions.end()) {
      return false;  // duplicated attribute: mapping must stay injective
    }
    positions.push_back(position);
  }
  *keep = std::move(positions);
  return true;
}

bool QueryEngine::DerivableLocked(const QuerySpec& spec) const {
  // Only the aggregate family has a materialized derivation; evolution and
  // exploration sweeps always run against the graph.
  if (spec.kind != QueryKind::kAggregate) return false;
  // An opaque filter makes the answer depend on data outside the store.
  if (spec.filter != nullptr || !store_.has_value()) return false;
  // T-distributivity covers union under ALL on any interval (Section 4.3);
  // on a single evaluation point DIST coincides with ALL (Fig 3), which also
  // admits project (a single-point projection *is* the snapshot). Multi-point
  // project/intersection/difference are not distributive over time points.
  const bool union_all = spec.op == TemporalOperatorKind::kUnion &&
                         spec.semantics == AggregationSemantics::kAll;
  const bool single_point = (spec.op == TemporalOperatorKind::kProject ||
                             spec.op == TemporalOperatorKind::kUnion) &&
                            spec.EvaluationInterval().Count() == 1;
  if (!union_all && !single_point) return false;
  std::vector<std::size_t> keep;
  return MapToBasePositions(spec, &keep);
}

bool QueryEngine::Derivable(const QuerySpec& spec) const {
  std::shared_lock<std::shared_mutex> reader(state_mutex_);
  return DerivableLocked(spec);
}

bool QueryEngine::StoreStale() const {
  return store_.has_value() && store_->num_cached_points() != graph_->num_times();
}

bool QueryEngine::SubsetLayerMemoized(SubsetMask mask) const {
  std::lock_guard<std::mutex> lock(subset_mutex_);
  return subset_layers_.find(mask) != subset_layers_.end();
}

CostInputs QueryEngine::CostInputsLocked(const QuerySpec& spec, bool derivable,
                                         std::span<const std::size_t> keep) const {
  CostInputs inputs;
  const IntervalSet eval = spec.EvaluationInterval();
  inputs.eval_points = eval.Count();
  // Per-point popcounts, cached inside PresenceIndex — the estimate costs a
  // handful of table reads, never a scan. A spec bound before an append may
  // carry a smaller time domain than the graph; estimating zero appearances
  // there is fine (execution GT_CHECKs the domain anyway).
  if (eval.bits().size() == graph_->num_times()) {
    inputs.node_appearances = graph_->node_presence_index().AppearancesOver(eval.bits());
    inputs.edge_appearances = graph_->edge_presence_index().AppearancesOver(eval.bits());
  }
  if (!derivable) return inputs;
  inputs.materialized_available = true;
  inputs.total_points = graph_->num_times();
  if (store_->num_cached_points() > 0) {
    // First store point as the per-point group-count proxy: exact enough for
    // an ordering decision, free to read.
    const AggregateGraph& first = store_->AtTimePoint(0);
    inputs.store_groups = first.NodeCount() + first.EdgeCount();
  }
  // A strict attribute subset answers through a per-time-point roll-up
  // layer; if that layer is cold, the derivation pays for building it over
  // *every* store point — the fixed rule's losing case.
  inputs.needs_rollup = keep.size() < store_->attrs().size();
  if (inputs.needs_rollup) {
    std::vector<std::size_t> canonical(keep.begin(), keep.end());
    std::sort(canonical.begin(), canonical.end());
    SubsetMask mask = 0;
    for (std::size_t position : canonical) mask |= SubsetMask{1} << position;
    inputs.layer_memoized = SubsetLayerMemoized(mask);
  }
  return inputs;
}

QueryPlan QueryEngine::Plan(const QuerySpec& spec, const PlanOptions& options) const {
  std::shared_lock<std::shared_mutex> reader(state_mutex_);
  return PlanLocked(spec, options);
}

QueryPlan QueryEngine::PlanLocked(const QuerySpec& spec,
                                  const PlanOptions& options) const {
  GT_SPAN("engine/plan");

  QueryPlan plan;
  plan.fingerprint = spec.Fingerprint();
  plan.cacheable = spec.Cacheable();
  plan.planner = config_.planner;

  if (spec.kind == QueryKind::kEvolution) {
    GT_CHECK(!spec.attrs.empty()) << "spec needs at least one aggregation attribute";
    GT_CHECK_LE(spec.attrs.size(), AttrTuple::kMaxAttrs)
        << "too many aggregation attributes";
    GT_CHECK(!options.force_route.has_value() ||
             *options.force_route == PlanRoute::kDirectKernel)
        << "evolution specs have no materialized route";
    plan.route = PlanRoute::kDirectKernel;
    plan.cost = EstimateCost(CostInputsLocked(spec, /*derivable=*/false, {}));
    std::string detail = "old=" + spec.t1.ToString() + " new=" + spec.t2.ToString() +
                         " attrs=[" + JoinAttrNames(*graph_, spec.attrs) + "]";
    if (spec.filter != nullptr) detail += " filter=yes";
    plan.steps.push_back({"evolution", std::move(detail)});
    return plan;
  }
  if (spec.kind == QueryKind::kExplore) {
    GT_CHECK(!options.force_route.has_value() ||
             *options.force_route == PlanRoute::kDirectKernel)
        << "explore specs have no materialized route";
    plan.route = PlanRoute::kDirectKernel;
    plan.cost = EstimateCost(CostInputsLocked(spec, /*derivable=*/false, {}));
    std::string detail = std::string("event=") + EventTypeName(spec.explore.event);
    detail += spec.explore.semantics == ExtensionSemantics::kUnion
                  ? " semantics=union"
                  : " semantics=intersection";
    detail += spec.explore.reference == ReferenceEnd::kOld ? " reference=old"
                                                           : " reference=new";
    detail += " k=" + std::to_string(spec.explore.k);
    plan.steps.push_back({"explore", std::move(detail)});
    return plan;
  }

  GT_CHECK(!spec.attrs.empty()) << "spec needs at least one aggregation attribute";
  GT_CHECK_LE(spec.attrs.size(), AttrTuple::kMaxAttrs) << "too many aggregation attributes";

  const bool derivable = DerivableLocked(spec);
  std::vector<std::size_t> keep;
  if (derivable) {
    GT_CHECK(MapToBasePositions(spec, &keep));
  }
  plan.cost = EstimateCost(CostInputsLocked(spec, derivable, keep));

  if (options.force_route.has_value()) {
    GT_CHECK(*options.force_route != PlanRoute::kMaterializedDerivation || derivable)
        << "cannot force the materialized route: spec is not derivable";
    plan.route = *options.force_route;
  } else if (config_.planner == PlannerMode::kCost) {
    CostPlanCounter().Increment();
    const bool derive = derivable && plan.cost.MaterializedWins();
    // A "flip" is a decision the fixed rule would have made differently —
    // the rule derives whenever it can.
    if (derivable && !derive) CostRouteFlipCounter().Increment();
    plan.route = derive ? PlanRoute::kMaterializedDerivation : PlanRoute::kDirectKernel;
  } else {
    plan.route = derivable ? PlanRoute::kMaterializedDerivation : PlanRoute::kDirectKernel;
  }

  // Graceful degradation: a derivable spec cannot be served from a store that
  // AppendTimePoint outran — answer through the kernels instead of crashing
  // (or worse, summing aggregates that miss the new points).
  if (plan.route == PlanRoute::kMaterializedDerivation && StoreStale()) {
    plan.route = PlanRoute::kDirectKernel;
    plan.stale_fallback = true;
    StaleFallbackCounter().Increment();
    if (obs::RequestContext* ctx = obs::CurrentRequestContext()) {
      ctx->stale_fallback.store(true, std::memory_order_relaxed);
    }
  }

  if (plan.route == PlanRoute::kMaterializedDerivation) {
    plan.keep_positions = std::move(keep);
    const std::vector<AttrRef>& base = store_->attrs();
    bool identity = plan.keep_positions.size() == base.size();
    for (std::size_t i = 0; identity && i < plan.keep_positions.size(); ++i) {
      identity = plan.keep_positions[i] == i;
    }
    plan.needs_rollup = !identity;
    plan.steps.push_back(
        {"combine", "store=(" + JoinAttrNames(*graph_, base) +
                        ") points=" + std::to_string(spec.EvaluationInterval().Count())});
    if (plan.needs_rollup) {
      plan.steps.push_back({"roll-up", "keep=" + JoinPositions(plan.keep_positions)});
    }
  } else {
    const GroupingResolution resolution =
        ResolveGrouping(*graph_, spec.attrs, spec.grouping);
    plan.dense_nodes = resolution.dense_nodes;
    plan.dense_edges = resolution.dense_edges;
    if (obs::RequestContext* ctx = obs::CurrentRequestContext()) {
      ctx->grouping.store(plan.dense_nodes ? "dense" : "hash",
                          std::memory_order_relaxed);
    }
    std::string operand = "t1=" + spec.t1.ToString();
    if (UsesT2(spec.op)) operand += " t2=" + spec.t2.ToString();
    plan.steps.push_back(
        {std::string("operator/") + TemporalOperatorName(spec.op), std::move(operand)});
    std::string detail = "attrs=[" + JoinAttrNames(*graph_, spec.attrs) + "] semantics=";
    detail += spec.semantics == AggregationSemantics::kDistinct ? "DIST" : "ALL";
    detail += " nodes=";
    detail += plan.dense_nodes ? "dense" : "hash";
    detail += " edges=";
    detail += plan.dense_edges ? "dense" : "hash";
    if (spec.filter != nullptr) detail += " filter=yes";
    plan.steps.push_back({"aggregate", std::move(detail)});
  }
  if (spec.symmetrize) plan.steps.push_back({"symmetrize", "mirror-edge merge"});
  return plan;
}

bool QueryEngine::EntryValid(const CachedResult& entry) const {
  return graph_->IntervalUnchangedSince(entry.dependencies, entry.generation);
}

void QueryEngine::ClearCache() {
  for (CacheShard& shard : cache_shards_) {
    std::unique_lock<std::shared_mutex> cache_writer(shard.mutex);
    cache_size_.fetch_sub(shard.entries.size(), std::memory_order_relaxed);
    shard.entries.clear();
  }
  std::lock_guard<std::mutex> spill_lock(spill_mutex_);
  if (spill_ != nullptr) {
    for (const auto& [fingerprint, entry] : spilled_results_) {
      spill_->Remove("result_" + HexFingerprint(fingerprint));
    }
  }
  spilled_results_.clear();
}

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  CacheStats stats;
  stats.hits = cache_stats_.hits.load(std::memory_order_relaxed);
  stats.misses = cache_stats_.misses.load(std::memory_order_relaxed);
  stats.bypasses = cache_stats_.bypasses.load(std::memory_order_relaxed);
  stats.evictions = cache_stats_.evictions.load(std::memory_order_relaxed);
  stats.invalidations = cache_stats_.invalidations.load(std::memory_order_relaxed);
  return stats;
}

QueryEngine::DerivationStats QueryEngine::derivation_stats() const {
  DerivationStats stats;
  stats.rollups = static_cast<std::size_t>(
      derivation_stats_.rollups.load(std::memory_order_relaxed));
  stats.rollup_hits = static_cast<std::size_t>(
      derivation_stats_.rollup_hits.load(std::memory_order_relaxed));
  stats.combines = static_cast<std::size_t>(
      derivation_stats_.combines.load(std::memory_order_relaxed));
  return stats;
}

AggregateGraph QueryEngine::Execute(const QuerySpec& spec, const PlanOptions& options) {
  GT_CHECK(spec.kind == QueryKind::kAggregate)
      << "Execute() answers aggregate specs; use ExecuteResult for "
      << QueryKindName(spec.kind) << " specs";
  std::shared_lock<std::shared_mutex> reader(state_mutex_);
  return ExecuteLocked(spec, options, nullptr, nullptr).aggregate();
}

QueryResult QueryEngine::ExecuteResult(const QuerySpec& spec, const PlanOptions& options,
                                       QueryPlan* executed_plan) {
  std::shared_lock<std::shared_mutex> reader(state_mutex_);
  return ExecuteLocked(spec, options, nullptr, executed_plan);
}

QueryResult QueryEngine::ExecuteLocked(const QuerySpec& spec, const PlanOptions& options,
                                       FoldCache* folds, QueryPlan* executed_plan) {
  // Caller holds `state_mutex_` shared for the whole query: plan, lookup,
  // run. Writers — Refresh, EnableMaterialization, graph mutations under
  // AcquireWriterLock — are excluded until it returns, so the graph and store
  // are frozen from this thread's point of view.
  QueryPlan local_plan;
  QueryPlan& plan = executed_plan != nullptr ? *executed_plan : local_plan;
  plan = PlanLocked(spec, options);
  GT_SPAN("engine/execute", {{"route", static_cast<std::uint64_t>(plan.route)},
                             {"steps", plan.steps.size()}});
  QueriesCounter().Increment();
  // Attribute the planning outcome to the bound request context (if any) so
  // the server's slow-query record reflects exactly what this execution did.
  obs::RequestContext* ctx = obs::CurrentRequestContext();
  if (ctx != nullptr) {
    ctx->fingerprint.store(plan.fingerprint, std::memory_order_relaxed);
    ctx->route.store(PlanRouteName(plan.route), std::memory_order_relaxed);
    ctx->planner.store(PlannerModeName(plan.planner), std::memory_order_relaxed);
  }

  if (!plan.cacheable || config_.cache_capacity == 0) {
    cache_stats_.bypasses.fetch_add(1, std::memory_order_relaxed);
    CacheBypassCounter().Increment();
    if (ctx != nullptr) ctx->cache.store("bypass", std::memory_order_relaxed);
    return Run(spec, plan, folds);
  }

  const std::uint64_t generation = graph_->mutation_generation();
  CacheShard& home = cache_shards_[ShardIndex(plan.fingerprint)];
  {
    // Hit path: the home shard's shared lock only, plus a relaxed sloppy-LRU
    // touch — concurrent hits on other shards never contend here.
    std::shared_lock<std::shared_mutex> cache_reader(home.mutex);
    auto it = home.entries.find(plan.fingerprint);
    if (it != home.entries.end()) {
      CachedResult& entry = *it->second;
      if (EntryValid(entry) && entry.spec.EquivalentTo(spec)) {
        cache_stats_.hits.fetch_add(1, std::memory_order_relaxed);
        CacheHitCounter().Increment();
        if (ctx != nullptr) ctx->cache.store("hit", std::memory_order_relaxed);
        entry.last_used.store(
            lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
            std::memory_order_relaxed);
        return entry.result;  // a handle copy: the answer is shared, not copied
      }
    }
  }
  if (spill_ != nullptr) {
    // Cold tier: an aggregate answer evicted earlier may still be on disk and
    // still valid. A reload counts as a hit (nothing is recomputed) and the
    // result is promoted back into the resident cache.
    if (std::optional<QueryResult> reloaded =
            TryLoadSpilledResult(plan.fingerprint, spec)) {
      cache_stats_.hits.fetch_add(1, std::memory_order_relaxed);
      CacheHitCounter().Increment();
      if (ctx != nullptr) ctx->cache.store("hit", std::memory_order_relaxed);
      InsertResult(spec, plan, *reloaded, generation);
      return *reloaded;
    }
  }
  cache_stats_.misses.fetch_add(1, std::memory_order_relaxed);
  CacheMissCounter().Increment();
  if (ctx != nullptr) ctx->cache.store("miss", std::memory_order_relaxed);

  QueryResult result = Run(spec, plan, folds);
  InsertResult(spec, plan, result, generation);
  return result;
}

void QueryEngine::InsertResult(const QuerySpec& spec, const QueryPlan& plan,
                               const QueryResult& result, std::uint64_t generation) {
  // Per-entry invalidation sweep: evict exactly the entries whose dependency
  // time points mutated past their stamp. Append-only growth touches only
  // appended points, so disjoint old-interval entries survive here. Shard by
  // shard — never more than one shard lock held, no ordering concern.
  for (CacheShard& shard : cache_shards_) {
    std::unique_lock<std::shared_mutex> cache_writer(shard.mutex);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (!EntryValid(*it->second)) {
        it = shard.entries.erase(it);
        cache_size_.fetch_sub(1, std::memory_order_relaxed);
        cache_stats_.invalidations.fetch_add(1, std::memory_order_relaxed);
        CacheInvalidateCounter().Increment();
      } else {
        ++it;
      }
    }
  }

  const std::uint64_t stamp = lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
  CacheShard& home = cache_shards_[ShardIndex(plan.fingerprint)];
  {
    std::unique_lock<std::shared_mutex> cache_writer(home.mutex);
    auto it = home.entries.find(plan.fingerprint);
    if (it != home.entries.end()) {
      // Either a concurrent reader filled the slot while we computed, or a
      // fingerprint collision with a non-equivalent spec: the newer query wins
      // (EquivalentTo on the hit path guarantees an impostor is never served).
      CachedResult& entry = *it->second;
      entry.spec = spec;
      entry.result = result;
      entry.dependencies = spec.DependencyInterval();
      entry.generation = generation;
      entry.last_used.store(stamp, std::memory_order_relaxed);
      return;
    }
    home.entries.emplace(
        plan.fingerprint,
        std::make_unique<CachedResult>(spec, result, spec.DependencyInterval(),
                                       generation, stamp));
    cache_size_.fetch_add(1, std::memory_order_relaxed);
  }
  if (cache_size_.load(std::memory_order_relaxed) > config_.cache_capacity) {
    // Sloppy LRU: evict the globally smallest last-used stamp. The only
    // multi-shard lock site — locks are taken in ascending index order (the
    // home-shard lock above is already released). O(capacity) scan, but only
    // on an insert that overflows — the hit path never pays it.
    std::array<std::unique_lock<std::shared_mutex>, kCacheShards> locks;
    for (std::size_t i = 0; i < kCacheShards; ++i) {
      locks[i] = std::unique_lock<std::shared_mutex>(cache_shards_[i].mutex);
    }
    std::size_t total = 0;
    for (const CacheShard& shard : cache_shards_) total += shard.entries.size();
    if (total > config_.cache_capacity) {
      CacheShard* victim_shard = nullptr;
      std::unordered_map<std::uint64_t, std::unique_ptr<CachedResult>>::iterator victim;
      std::uint64_t oldest = 0;
      for (CacheShard& shard : cache_shards_) {
        for (auto candidate = shard.entries.begin(); candidate != shard.entries.end();
             ++candidate) {
          const std::uint64_t used =
              candidate->second->last_used.load(std::memory_order_relaxed);
          if (victim_shard == nullptr || used < oldest) {
            oldest = used;
            victim_shard = &shard;
            victim = candidate;
          }
        }
      }
      if (victim_shard != nullptr) {
        SpillEvictedResult(victim->first, *victim->second);
        victim_shard->entries.erase(victim);
        cache_size_.fetch_sub(1, std::memory_order_relaxed);
        cache_stats_.evictions.fetch_add(1, std::memory_order_relaxed);
        CacheEvictCounter().Increment();
      }
    }
  }
}

QueryResult QueryEngine::Run(const QuerySpec& spec, const QueryPlan& plan,
                             FoldCache* folds) {
  if (spec.kind == QueryKind::kEvolution) {
    RouteDirectCounter().Increment();
    EvolutionAggregate evolution;
    {
      GT_SPAN("engine/evolution");
      evolution = AggregateEvolution(*graph_, spec.t1, spec.t2, spec.attrs, spec.filter);
    }
    GT_SPAN("engine/rank");
    return QueryResult(std::move(evolution));
  }
  if (spec.kind == QueryKind::kExplore) {
    RouteDirectCounter().Increment();
    GT_SPAN("engine/explore");
    return QueryResult(Explore(*graph_, spec.explore));
  }
  AggregateGraph aggregate;
  switch (plan.route) {
    case PlanRoute::kDirectKernel:
      RouteDirectCounter().Increment();
      aggregate = RunDirect(spec, plan, folds);
      break;
    case PlanRoute::kMaterializedDerivation:
      RouteMaterializedCounter().Increment();
      aggregate = RunMaterialized(spec, plan);
      break;
    default:
      GT_CHECK(false) << "unreachable plan route";
  }
  GT_SPAN("engine/rank");
  return QueryResult(std::move(aggregate));
}

AggregateGraph QueryEngine::RunDirect(const QuerySpec& spec, const QueryPlan& /*plan*/,
                                      FoldCache* folds) {
  GraphView view;
  {
    obs::Span span(OperatorSpanName(spec.op));
    view = folds != nullptr ? BuildOperatorView(*graph_, spec, *folds)
                            : BuildOperatorView(*graph_, spec);
  }
  AggregationOptions options;
  options.semantics = spec.semantics;
  options.filter = spec.filter;
  options.grouping = spec.grouping;
  AggregateGraph result;
  {
    GT_SPAN("engine/aggregate", {{"nodes", view.NodeCount()}, {"edges", view.EdgeCount()}});
    result = Aggregate(*graph_, view, spec.attrs, options);
  }
  if (spec.symmetrize) {
    GT_SPAN("engine/symmetrize");
    result = SymmetrizeAggregate(result);
  }
  return result;
}

std::string QueryEngine::LayerSpillKey(SubsetMask mask) {
  return "layer_" + std::to_string(mask);
}

void QueryEngine::EvictLayersLocked() {
  if (config_.max_resident_layers == 0) return;
  for (;;) {
    std::size_t resident = 0;
    LayerEntry* coldest = nullptr;
    SubsetMask coldest_mask = 0;
    std::uint64_t coldest_used = 0;
    auto coldest_it = subset_layers_.end();
    for (auto it = subset_layers_.begin(); it != subset_layers_.end(); ++it) {
      LayerEntry* entry = it->second.get();
      if (entry->data == nullptr) continue;  // already spilled
      ++resident;
      if (entry->pins.load(std::memory_order_acquire) != 0) continue;  // in use
      const std::uint64_t used = entry->last_used.load(std::memory_order_relaxed);
      if (coldest == nullptr || used < coldest_used) {
        coldest = entry;
        coldest_mask = it->first;
        coldest_used = used;
        coldest_it = it;
      }
    }
    if (resident <= config_.max_resident_layers || coldest == nullptr) return;
    // Pins are only acquired under `subset_mutex_` (held here), so observing
    // pins == 0 above means no reader holds or can take a reference.
    if (spill_ != nullptr &&
        spill_->Put(LayerSpillKey(coldest_mask), EncodeAggregateGraphs(*coldest->data))) {
      coldest->data.reset();
      coldest->spilled = true;
      LayerSpillCounter().Increment();
    } else {
      // No spill tier (or the write failed): drop the layer outright; a later
      // query rebuilds it from the store.
      subset_layers_.erase(coldest_it);
    }
  }
}

QueryEngine::LayerRef QueryEngine::SubsetLayer(std::span<const std::size_t> canonical,
                                               bool* served_from_memo) {
  SubsetMask mask = 0;
  for (std::size_t position : canonical) {
    GT_CHECK_LT(position, store_->attrs().size()) << "subset position out of range";
    mask |= SubsetMask{1} << position;
  }
  {
    std::lock_guard<std::mutex> lock(subset_mutex_);
    auto it = subset_layers_.find(mask);
    if (it != subset_layers_.end()) {
      LayerEntry* entry = it->second.get();
      if (entry->data == nullptr) {
        // Spilled: reload under the mutex (reloads are rare and must not race
        // with eviction of the freshly restored vector). Decode failure drops
        // the entry and falls through to a rebuild.
        std::vector<AggregateGraph> restored;
        bool ok = false;
        if (std::optional<std::string> bytes = spill_->Get(LayerSpillKey(mask))) {
          std::string decode_error;
          ok = DecodeAggregateGraphs(*bytes, &restored, &decode_error) &&
               restored.size() == graph_->num_times();
        }
        if (ok) {
          entry->data =
              std::make_unique<std::vector<AggregateGraph>>(std::move(restored));
          entry->spilled = false;
          LayerReloadCounter().Increment();
        } else {
          spill_->Remove(LayerSpillKey(mask));
          subset_layers_.erase(it);
          it = subset_layers_.end();
        }
      }
      if (it != subset_layers_.end()) {
        LayerEntry* pinned = it->second.get();
        pinned->pins.fetch_add(1, std::memory_order_acq_rel);
        pinned->last_used.store(lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                                std::memory_order_relaxed);
        *served_from_memo = true;
        EvictLayersLocked();
        return LayerRef(pinned);
      }
    }
  }
  // Build outside the lock so first queries for *different* subsets roll up
  // in parallel; a lost race for the same subset discards the duplicate.
  auto layer = std::make_unique<std::vector<AggregateGraph>>();
  layer->reserve(graph_->num_times());
  for (TimeId t = 0; t < graph_->num_times(); ++t) {
    layer->push_back(RollUp(store_->AtTimePoint(t), canonical));
    derivation_stats_.rollups.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(subset_mutex_);
  auto [it, inserted] = subset_layers_.try_emplace(mask);
  if (inserted) it->second = std::make_unique<LayerEntry>();
  LayerEntry* entry = it->second.get();
  if (inserted) {
    entry->data = std::move(layer);
  } else if (entry->data == nullptr) {
    // Lost the race against an evictor that spilled the winner's copy before
    // we re-locked; our freshly built vector is identical — adopt it.
    entry->data = std::move(layer);
    entry->spilled = false;
  }
  // Insert-once: if another reader won the race, serve its layer (identical
  // contents — the store is frozen under the shared state lock).
  *served_from_memo = !inserted;
  entry->pins.fetch_add(1, std::memory_order_acq_rel);
  entry->last_used.store(lru_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  EvictLayersLocked();
  return LayerRef(entry);
}

std::optional<QueryResult> QueryEngine::TryLoadSpilledResult(std::uint64_t fingerprint,
                                                             const QuerySpec& spec) {
  const std::string key = "result_" + HexFingerprint(fingerprint);
  std::lock_guard<std::mutex> lock(spill_mutex_);
  auto it = spilled_results_.find(fingerprint);
  if (it == spilled_results_.end()) return std::nullopt;
  // Drop the index entry either way: a valid answer gets promoted back into
  // the resident cache by the caller, a stale one must not be probed again.
  SpilledResult entry = std::move(it->second);
  spilled_results_.erase(it);
  if (!graph_->IntervalUnchangedSince(entry.dependencies, entry.generation) ||
      !entry.spec.EquivalentTo(spec)) {
    spill_->Remove(key);
    return std::nullopt;
  }
  std::optional<std::string> bytes = spill_->Get(key);
  spill_->Remove(key);
  if (!bytes.has_value()) return std::nullopt;
  std::vector<AggregateGraph> layers;
  std::string decode_error;
  if (!DecodeAggregateGraphs(*bytes, &layers, &decode_error) || layers.size() != 1) {
    return std::nullopt;
  }
  ResultReloadCounter().Increment();
  return QueryResult(std::move(layers[0]));  // ranked here, like a fresh answer
}

void QueryEngine::SpillEvictedResult(std::uint64_t fingerprint,
                                     const CachedResult& victim) {
  // Only aggregate answers have a byte encoding; evolution/exploration
  // results (and everything when spilling is off) are dropped as before.
  if (spill_ == nullptr || victim.result.kind() != QueryKind::kAggregate) return;
  const std::string key = "result_" + HexFingerprint(fingerprint);
  std::vector<AggregateGraph> one;
  one.push_back(victim.result.aggregate());
  if (!spill_->Put(key, EncodeAggregateGraphs(one))) return;
  std::lock_guard<std::mutex> lock(spill_mutex_);
  spilled_results_[fingerprint] =
      SpilledResult{victim.spec, victim.dependencies, victim.generation};
  ResultSpillCounter().Increment();
}

AggregateGraph QueryEngine::RunMaterialized(const QuerySpec& spec, const QueryPlan& plan) {
  GT_CHECK(store_.has_value() && store_->materialized())
      << "materialized route without a materialized store";
  // The planner degrades stale stores to the direct route, and the shared
  // state lock keeps the store current between planning and here — this is
  // an internal invariant, not a user-reachable crash.
  GT_CHECK_EQ(store_->num_cached_points(), graph_->num_times())
      << "materialized route reached a stale store";
  const IntervalSet interval = spec.EvaluationInterval();
  GT_CHECK(!interval.Empty()) << "evaluation interval must be non-empty";

  // Canonicalize the kept positions: the subset-layer cache is keyed by the
  // attribute *set*; a caller-ordered subset is served from the canonical
  // layer and reordered at the end (D-distributivity again).
  std::vector<std::size_t> canonical(plan.keep_positions);
  std::sort(canonical.begin(), canonical.end());
  const bool full_set = canonical.size() == store_->attrs().size();
  bool layer_memoized = false;
  LayerRef layer_ref;  // keeps the layer pinned across the combine loop
  const std::vector<AggregateGraph>* layer = nullptr;
  if (!full_set) {
    layer_ref = SubsetLayer(canonical, &layer_memoized);
    layer = &*layer_ref;
  }
  if (layer_memoized) {
    // Count only the evaluation points this query actually consumes from the
    // layer — fig11's derivation savings stay exact for partial intervals.
    derivation_stats_.rollup_hits.fetch_add(interval.Count(),
                                            std::memory_order_relaxed);
  }

  AggregateGraph combined;
  {
    GT_SPAN("engine/combine", {{"points", interval.Count()}});
    std::vector<const AggregateGraph*> points;
    interval.ForEach([&](TimeId t) {
      points.push_back(full_set ? &store_->AtTimePoint(t) : &(*layer)[t]);
    });
    combined = SumAggregates(points);
    derivation_stats_.combines.fetch_add(points.size(), std::memory_order_relaxed);
  }

  const bool reordered =
      !std::equal(canonical.begin(), canonical.end(), plan.keep_positions.begin(),
                  plan.keep_positions.end());
  if (reordered) {
    GT_SPAN("engine/roll-up");
    std::vector<std::size_t> order(plan.keep_positions.size());
    for (std::size_t i = 0; i < plan.keep_positions.size(); ++i) {
      auto it = std::find(canonical.begin(), canonical.end(), plan.keep_positions[i]);
      order[i] = static_cast<std::size_t>(it - canonical.begin());
    }
    combined = RollUp(combined, order);
  }
  if (spec.symmetrize) {
    GT_SPAN("engine/symmetrize");
    combined = SymmetrizeAggregate(combined);
  }
  return combined;
}

}  // namespace graphtempo::engine
