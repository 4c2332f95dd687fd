#include "engine/cube.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace graphtempo {

namespace {

/// The cube's engine keeps no result cache; its derivation layers memoize.
engine::QueryEngine::Config CubeEngineConfig() {
  engine::QueryEngine::Config config;
  config.cache_capacity = 0;
  return config;
}

}  // namespace

AggregateCube::AggregateCube(const TemporalGraph* graph, std::vector<AttrRef> base_attrs)
    : base_attrs_(std::move(base_attrs)), engine_(graph, CubeEngineConfig()) {
  GT_CHECK_LE(base_attrs_.size(), AttrTuple::kMaxAttrs) << "too many base attributes";
  GT_CHECK(!base_attrs_.empty()) << "materialization needs at least one attribute";
}

void AggregateCube::Materialize() { engine_.EnableMaterialization(base_attrs_); }

void AggregateCube::Refresh() { engine_.Refresh(); }

AggregateGraph AggregateCube::Query(const IntervalSet& interval,
                                    std::span<const std::size_t> keep_positions) {
  GT_CHECK(materialized()) << "call Materialize() first";
  GT_CHECK(!interval.Empty()) << "interval must be non-empty";
  GT_CHECK(!keep_positions.empty()) << "query needs at least one attribute";
  // Validate the subset here (rather than letting plan feasibility fail
  // inside the engine) to keep the cube's historical error messages.
  std::vector<std::size_t> sorted(keep_positions.begin(), keep_positions.end());
  std::sort(sorted.begin(), sorted.end());
  GT_CHECK(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end())
      << "duplicate subset position";
  GT_CHECK_LT(sorted.back(), base_attrs_.size()) << "subset position out of range";
  ++queries_;

  engine::QuerySpec spec;
  spec.op = engine::TemporalOperatorKind::kUnion;
  spec.t1 = interval;
  spec.t2 = IntervalSet(interval.domain_size());  // single-interval union
  spec.semantics = AggregationSemantics::kAll;
  spec.attrs.reserve(keep_positions.size());
  for (std::size_t position : keep_positions) {
    spec.attrs.push_back(base_attrs_[position]);
  }
  engine::QueryEngine::PlanOptions options;
  options.force_route = engine::PlanRoute::kMaterializedDerivation;
  return engine_.Execute(spec, options);
}

AggregateGraph AggregateCube::Query(const IntervalSet& interval) {
  std::vector<std::size_t> all(base_attrs_.size());
  std::iota(all.begin(), all.end(), 0);
  return Query(interval, all);
}

AggregateCube::Stats AggregateCube::stats() const {
  const engine::QueryEngine::DerivationStats derivation = engine_.derivation_stats();
  Stats stats;
  stats.queries = queries_;
  stats.rollups = derivation.rollups;
  stats.rollup_hits = derivation.rollup_hits;
  stats.combines = derivation.combines;
  return stats;
}

}  // namespace graphtempo
