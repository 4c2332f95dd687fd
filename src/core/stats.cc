#include "core/stats.h"

#include <algorithm>
#include <vector>

#include "accel/backend.h"
#include "obs/context.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/parallel.h"

namespace graphtempo {

SnapshotStats ComputeSnapshotStats(const TemporalGraph& graph, TimeId t) {
  GT_CHECK_LT(t, graph.num_times()) << "time out of range";
  SnapshotStats stats;
  stats.nodes = graph.NodesAt(t);
  stats.edges = graph.EdgesAt(t);
  if (stats.nodes > 0) {
    stats.avg_out_degree =
        static_cast<double>(stats.edges) / static_cast<double>(stats.nodes);
  }
  if (stats.nodes > 1) {
    stats.density = static_cast<double>(stats.edges) /
                    (static_cast<double>(stats.nodes) *
                     static_cast<double>(stats.nodes - 1));
  }
  std::vector<std::size_t> out_degree(graph.num_nodes(), 0);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (!graph.EdgePresentAt(e, t)) continue;
    ++out_degree[graph.edge(e).first];
  }
  for (std::size_t degree : out_degree) {
    stats.max_out_degree = std::max(stats.max_out_degree, degree);
  }
  return stats;
}

double SnapshotJaccard(const TemporalGraph& graph, TimeId t1, TimeId t2,
                       EntityKind kind) {
  GT_CHECK_LT(t1, graph.num_times()) << "time out of range";
  GT_CHECK_LT(t2, graph.num_times()) << "time out of range";
  const PresenceIndex& presence = kind == EntityKind::kNodes
                                      ? graph.node_presence_index()
                                      : graph.edge_presence_index();
  const DynamicBitset& a = presence.Column(t1);
  const DynamicBitset& b = presence.Column(t2);
  const std::size_t both = (a & b).Count();
  const std::size_t either = (a | b).Count();
  return either == 0 ? 0.0 : static_cast<double>(both) / static_cast<double>(either);
}

std::map<std::size_t, std::size_t> OutDegreeHistogram(const TemporalGraph& graph,
                                                      TimeId t) {
  GT_CHECK_LT(t, graph.num_times()) << "time out of range";
  std::vector<std::size_t> out_degree(graph.num_nodes(), 0);
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (!graph.EdgePresentAt(e, t)) continue;
    ++out_degree[graph.edge(e).first];
  }
  std::map<std::size_t, std::size_t> histogram;
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (!graph.NodePresentAt(n, t)) continue;
    ++histogram[out_degree[n]];
  }
  return histogram;
}

std::map<std::size_t, std::size_t> LifespanHistogram(const TemporalGraph& graph,
                                                     EntityKind kind) {
  const PresenceIndex& presence = kind == EntityKind::kNodes
                                      ? graph.node_presence_index()
                                      : graph.edge_presence_index();
  std::vector<std::size_t> lifespans(presence.num_entities(), 0);
  for (std::size_t t = 0; t < presence.num_times(); ++t) {
    presence.Column(t).ForEachSetBit([&](std::size_t entity) { ++lifespans[entity]; });
  }
  std::map<std::size_t, std::size_t> histogram;
  for (std::size_t lifespan : lifespans) {
    if (lifespan > 0) ++histogram[lifespan];
  }
  return histogram;
}

std::map<std::string, std::size_t> AttributeDistribution(const TemporalGraph& graph,
                                                         AttrRef attr, TimeId t) {
  GT_CHECK_LT(t, graph.num_times()) << "time out of range";
  std::map<std::string, std::size_t> distribution;
  for (NodeId n = 0; n < graph.num_nodes(); ++n) {
    if (!graph.NodePresentAt(n, t)) continue;
    AttrValueId code = graph.ValueCodeAt(attr, n, t);
    if (code == kNoValue) continue;
    ++distribution[graph.ValueName(attr, code)];
  }
  return distribution;
}

// --- execution counters -------------------------------------------------------
//
// Since the observability layer landed, the exec counters are a *view* over
// the unified obs::Registry (docs/OBSERVABILITY.md). The accumulation hooks
// update registry counters through cached references (lock-free), and
// GetExecCounters samples every field — including the pool's, which used to
// live in a second source inside util/parallel — from ONE registry snapshot,
// so a concurrent ResetExecCounters can never tear a `--perf` line in half.

namespace {

obs::Counter& CounterRef(const char* name) {
  return obs::Registry::Instance().GetCounter(name);
}

}  // namespace

ExecCounters GetExecCounters() {
  // One locked snapshot: either entirely pre-reset or entirely post-reset.
  obs::MetricsSnapshot snapshot = obs::Registry::Instance().Snapshot();
  ExecCounters counters;
  counters.backend = accel::ActiveBackendName();
  counters.agg_rows_scanned = snapshot.CounterValue("agg/rows_scanned");
  counters.agg_chunks = snapshot.CounterValue("agg/chunks");
  counters.agg_merge_nanos = snapshot.CounterValue("agg/merge_nanos");
  counters.explore_evaluations = snapshot.CounterValue("explore/evaluations");
  counters.kernel_words = snapshot.CounterValue("kernel/words");
  counters.interval_index_hits = snapshot.CounterValue("interval_index/hits");
  counters.interval_index_misses = snapshot.CounterValue("interval_index/misses");
  counters.agg_dense_groups = snapshot.CounterValue("agg/dense_groups");
  counters.agg_hash_groups = snapshot.CounterValue("agg/hash_groups");
  counters.pool_jobs = snapshot.CounterValue("pool/jobs");
  counters.pool_chunks = snapshot.CounterValue("pool/chunks");
  return counters;
}

void ResetExecCounters() {
  // Zeroes every registry metric (counters and histograms) in one locked
  // generation — the pool's included, since util/parallel records into the
  // same registry.
  obs::Registry::Instance().ResetAll();
}

namespace internal_counters {

void AddAggregation(std::uint64_t rows, std::uint64_t chunks,
                    std::uint64_t merge_nanos) {
  static obs::Counter& agg_rows = CounterRef("agg/rows_scanned");
  static obs::Counter& agg_chunks = CounterRef("agg/chunks");
  static obs::Counter& agg_merge = CounterRef("agg/merge_nanos");
  agg_rows.Add(rows);
  agg_chunks.Add(chunks);
  agg_merge.Add(merge_nanos);
}

void AddExploreEvaluations(std::uint64_t evaluations) {
  static obs::Counter& counter = CounterRef("explore/evaluations");
  counter.Add(evaluations);
}

void AddKernelWords(std::uint64_t words) {
  static obs::Counter& counter = CounterRef("kernel/words");
  counter.Add(words);
  // Mirror into the request context (if one is bound) so a slow-query record
  // can attribute kernel work to the specific query, pool workers included.
  if (obs::RequestContext* context = obs::CurrentRequestContext()) {
    context->kernel_words.fetch_add(words, std::memory_order_relaxed);
  }
}

void AddIntervalIndex(std::uint64_t hits, std::uint64_t misses) {
  static obs::Counter& hit_counter = CounterRef("interval_index/hits");
  static obs::Counter& miss_counter = CounterRef("interval_index/misses");
  if (hits != 0) hit_counter.Add(hits);
  if (misses != 0) miss_counter.Add(misses);
}

void AddGroupingPath(std::uint64_t dense, std::uint64_t hash) {
  static obs::Counter& dense_counter = CounterRef("agg/dense_groups");
  static obs::Counter& hash_counter = CounterRef("agg/hash_groups");
  if (dense != 0) dense_counter.Add(dense);
  if (hash != 0) hash_counter.Add(hash);
}

}  // namespace internal_counters

}  // namespace graphtempo
