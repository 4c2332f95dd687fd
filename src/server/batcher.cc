#include "server/batcher.h"

#include <chrono>
#include <utility>

#include "obs/metrics.h"

namespace graphtempo::server {

namespace {

obs::Counter& BatchWindowsCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("server/batch_windows");
  return c;
}
obs::Counter& BatchGatheredCounter() {
  static obs::Counter& c =
      obs::Registry::Instance().GetCounter("server/batch_gathered");
  return c;
}
obs::Counter& BatchRidersCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter("server/batch_riders");
  return c;
}

}  // namespace

engine::QueryResult QueryBatcher::Execute(const engine::QuerySpec& spec,
                                          obs::RequestContext* ctx,
                                          engine::QueryPlan* plan) {
  if (window_us_ <= 0) {
    // Gathering disabled: the historical one-query-one-execution path. The
    // caller's thread-bound request context attributes as before.
    return engine_->ExecuteResult(spec, engine::QueryEngine::PlanOptions{}, plan);
  }

  Pending item;
  item.spec = &spec;
  item.ctx = ctx;
  item.plan = plan;

  std::unique_lock<std::mutex> lock(mutex_);
  queue_.push_back(&item);
  if (leader_active_) {
    // A leader is gathering; it will execute this item and fill the slot.
    done_.wait(lock, [&] { return item.done; });
    return std::move(item.result);
  }

  // Become the leader: hold the window open so concurrent arrivals join,
  // then take whatever gathered and run it as one engine batch. The wait
  // releases `mutex_`, which is exactly what lets followers enqueue.
  leader_active_ = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(window_us_);
  // No predicate: nothing ends the window early — arrivals are the point.
  // Spurious wakeups just re-check the clock.
  while (done_.wait_until(lock, deadline) != std::cv_status::timeout) {
  }

  std::vector<Pending*> batch;
  batch.swap(queue_);
  leader_active_ = false;  // the next arrival leads the next window
  lock.unlock();

  BatchWindowsCounter().Increment();
  BatchGatheredCounter().Add(batch.size());
  std::vector<engine::QueryEngine::BatchItem> items;
  items.reserve(batch.size());
  for (Pending* pending : batch) {
    items.push_back({pending->spec, pending->ctx, pending->plan});
  }
  std::vector<engine::QueryResult> results = engine_->ExecuteBatch(items);

  lock.lock();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i]->result = std::move(results[i]);
    batch[i]->done = true;
  }
  lock.unlock();
  done_.notify_all();
  return std::move(item.result);
}

std::optional<engine::QueryResult> QueryBatcher::TryJoinActiveWindow(
    const engine::QuerySpec& spec, obs::RequestContext* ctx, engine::QueryPlan* plan) {
  if (window_us_ <= 0) return std::nullopt;
  Pending item;
  item.spec = &spec;
  item.ctx = ctx;
  item.plan = plan;

  std::unique_lock<std::mutex> lock(mutex_);
  // `leader_active_` flips false under `mutex_` at the same instant the
  // leader swaps the queue out, so observing it true here guarantees this
  // item lands in the batch the leader is about to execute.
  if (!leader_active_) return std::nullopt;
  queue_.push_back(&item);
  BatchRidersCounter().Increment();
  done_.wait(lock, [&] { return item.done; });
  return std::move(item.result);
}

}  // namespace graphtempo::server
