#ifndef GRAPHTEMPO_SERVER_BATCHER_H_
#define GRAPHTEMPO_SERVER_BATCHER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "engine/engine.h"
#include "obs/context.h"

/// \file
/// `QueryBatcher`: the server's bounded gather window in front of
/// `QueryEngine::ExecuteBatch` (docs/ENGINE.md §Batch execution).
///
/// With a window of 0 (the default) every query executes alone — exactly the
/// historical path. With `--batch-window-us N`, the first query to arrive
/// while no batch is forming becomes the *leader*: it waits up to N
/// microseconds for concurrent queries to pile on, then executes the whole
/// group as one engine batch — equivalent specs are answered once and fanned
/// out, and distinct specs share one presence-fold cache. Followers block on
/// their slot until the leader publishes their result.
///
/// The window trades a bounded latency floor (≤ N µs added to the leader's
/// query) for shared work under concurrency; results are byte-identical to
/// serial execution, pinned by the batch differential suite.
///
/// Callers hold the server's shared `graph_mutex_` for the duration of
/// `Execute`, so every batch participant sees the same frozen graph and the
/// ingestion writer cannot slip between gather and execution.

namespace graphtempo::server {

class QueryBatcher {
 public:
  /// Does not take ownership; `engine` must outlive the batcher.
  /// `window_us` ≤ 0 disables gathering (every call executes directly).
  QueryBatcher(engine::QueryEngine* engine, std::int64_t window_us)
      : engine_(engine), window_us_(window_us) {}

  QueryBatcher(const QueryBatcher&) = delete;
  QueryBatcher& operator=(const QueryBatcher&) = delete;

  /// Executes `spec`, possibly as part of a gathered batch. `ctx` (may be
  /// null) receives the engine's per-request attribution regardless of which
  /// thread actually ran the spec; `plan` (may be null) the plan it ran.
  engine::QueryResult Execute(const engine::QuerySpec& spec, obs::RequestContext* ctx,
                              engine::QueryPlan* plan = nullptr);

  /// Joins a gather window that is *already open* without becoming a leader:
  /// returns the batch-computed result when a leader is currently gathering,
  /// `nullopt` when no window is open (or gathering is disabled). The
  /// server's admission control uses this to let an over-capacity query ride
  /// an in-flight batch — the gathered group is one in-flight unit, so
  /// piling onto it adds no engine concurrency.
  std::optional<engine::QueryResult> TryJoinActiveWindow(
      const engine::QuerySpec& spec, obs::RequestContext* ctx,
      engine::QueryPlan* plan = nullptr);

 private:
  /// One waiting query: its inputs, and the slot the leader fills.
  struct Pending {
    const engine::QuerySpec* spec = nullptr;
    obs::RequestContext* ctx = nullptr;
    engine::QueryPlan* plan = nullptr;
    engine::QueryResult result;
    bool done = false;
  };

  engine::QueryEngine* engine_;
  std::int64_t window_us_;

  std::mutex mutex_;
  std::condition_variable done_;       ///< leader → followers: results ready
  std::vector<Pending*> queue_;        ///< queries gathered for the next batch
  bool leader_active_ = false;         ///< a leader is currently gathering
};

}  // namespace graphtempo::server

#endif  // GRAPHTEMPO_SERVER_BATCHER_H_
