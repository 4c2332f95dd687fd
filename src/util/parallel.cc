#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "obs/context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/check.h"

namespace graphtempo {

namespace {

std::atomic<std::size_t> g_parallelism{1};

/// Pool activity counters live in the unified obs registry so a single
/// `Registry::Snapshot()` (see GetExecCounters) observes them together with
/// the core counters — one generation, no torn `--perf` lines.
obs::Counter& PoolJobsCounter() {
  static obs::Counter& counter =
      obs::Registry::Instance().GetCounter("pool/jobs");
  return counter;
}

obs::Counter& PoolChunksCounter() {
  static obs::Counter& counter =
      obs::Registry::Instance().GetCounter("pool/chunks");
  return counter;
}

/// A lazily-started, process-lifetime worker pool. Spawning std::threads per
/// operator call costs more than a typical presence scan (≈1 ms on the DBLP
/// graph); persistent workers make small-grained parallelism worthwhile.
///
/// ## Job hand-off
///
/// Earlier revisions handed work to the workers through a single
/// `current_job_` slot. That scheme has two hazards this design removes:
///
///   1. *Nested issue*: a chunk body that itself called `RunChunks` swapped
///      the slot mid-flight, so workers woken for the outer job could be
///      retargeted at the inner one and the outer owner was left draining its
///      job alone (and, with unlucky interleavings of the generation counter,
///      risked waiting on a job no worker would ever revisit).
///   2. *Concurrent owners*: a second application thread issuing a scan
///      overwrote the first thread's job, silently serializing it.
///
/// Work is now handed over through a FIFO *queue of jobs*. Every `RunChunks`
/// call enqueues its own job; workers scan the queue for any job with
/// unclaimed chunks. Chunk claiming stays lock-free (`next` fetch_add), so
/// the mutex only guards queue membership and the condition variables.
///
/// Progress argument (no deadlock, any nesting depth, any number of owners):
/// an owner claims chunks of its *own* job until `next ≥ total` before it
/// blocks, so every chunk of every job is claimed by some thread that then
/// runs it to completion. A blocked owner therefore only ever waits on
/// chunks that are actively executing on other threads; because a thread
/// can only wait for a job it issued *below* the chunk it is executing, the
/// waits-for graph follows the (finite, acyclic) call-nesting order.
///
/// Jobs are heap-allocated shared_ptrs, so a worker that wakes late simply
/// finds the job exhausted and rescans — no way to misattribute chunks
/// across jobs. The pool object is intentionally leaked: workers may still
/// be blocked on the condition variable at process exit, and the
/// synchronization primitives must outlive them.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool& pool = *new ThreadPool();
    return pool;
  }

  /// Grows the worker set to `workers` (never shrinks; idle workers are cheap).
  void EnsureWorkers(std::size_t workers) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (workers_.size() < workers) {
      workers_.emplace_back([this] { WorkerLoop(); });
      workers_.back().detach();
    }
  }

  /// Runs `fn(chunk)` for every chunk in [0, chunks); blocks until all chunks
  /// completed. The calling thread participates, claiming every chunk no
  /// worker has picked up yet. Safe to call from any thread, including from
  /// inside a chunk body running on this very pool.
  void RunChunks(std::size_t chunks, const std::function<void(std::size_t)>& fn) {
    if (chunks == 0) return;
    GT_SPAN("pool/job", {{"chunks", chunks}});
    auto job = std::make_shared<Job>();
    job->fn = &fn;
    job->total = chunks;
    // Chunks executed on worker lanes inherit the issuing thread's request
    // context, so per-request attribution (kernel words, phase timings)
    // follows the query across threads. The owner blocks until every chunk
    // finishes, so the pointer outlives all uses.
    job->context = obs::CurrentRequestContext();
    job->remaining.store(chunks, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_.push_back(job);
    }
    work_available_.notify_all();
    PoolJobsCounter().Add(1);

    // Drain our own job first: after this returns, every chunk is claimed
    // (next ≥ total), so the wait below only covers chunks already running
    // on other threads.
    Work(*job);

    std::unique_lock<std::mutex> lock(mutex_);
    job->done.wait(lock, [&] {
      return job->remaining.load(std::memory_order_acquire) == 0;
    });
    // Retire the exhausted job. Only the owner erases, exactly once.
    auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it != queue_.end()) queue_.erase(it);
  }

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    obs::RequestContext* context = nullptr;  ///< issuer's request context
    std::size_t total = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining{0};
    /// Signaled (under the pool mutex) when `remaining` hits zero. Per-job,
    /// so owners of distinct jobs never wake each other spuriously.
    std::condition_variable done;
  };

  ThreadPool() = default;

  /// Claims and runs chunks of `job` until none are left unclaimed.
  void Work(Job& job) {
    // Adopt the issuer's request context for the duration (a re-bind of the
    // same pointer when the owner drains its own job; the real hand-off for
    // pool workers).
    obs::ScopedRequestContext adopt(job.context);
    while (true) {
      std::size_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= job.total) return;
      {
        // Span destructs (and its event is published to this thread's trace
        // buffer) *before* the release `remaining.fetch_sub` below, so the
        // owner's collection happens-after every chunk record.
        GT_SPAN("pool/chunk", {{"chunk", chunk}});
        (*job.fn)(chunk);
      }
      PoolChunksCounter().Add(1);
      if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last chunk: wake the job owner. Locking the mutex (empty critical
        // section) pairs with the owner's wait and prevents a lost wakeup.
        { std::unique_lock<std::mutex> lock(mutex_); }
        job.done.notify_all();
      }
    }
  }

  /// A job with unclaimed chunks, oldest first; nullptr when none.
  /// Caller must hold `mutex_`. Exhausted jobs stay queued until their owner
  /// retires them, but claiming is gated on `next < total` so they are
  /// skipped here.
  std::shared_ptr<Job> FindRunnableLocked() {
    for (const std::shared_ptr<Job>& job : queue_) {
      if (job->next.load(std::memory_order_relaxed) < job->total) return job;
    }
    return nullptr;
  }

  void WorkerLoop() {
    obs::SetCurrentThreadLaneName("worker");
    while (true) {
      std::shared_ptr<Job> job;
      {
        // Bind the job inside the predicate: the owner claims chunks without
        // the mutex, so a second FindRunnableLocked() after the wait could
        // find the job exhausted and return nullptr.
        std::unique_lock<std::mutex> lock(mutex_);
        work_available_.wait(lock,
                             [&] { return (job = FindRunnableLocked()) != nullptr; });
      }
      Work(*job);
    }
  }

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::vector<std::thread> workers_;
  std::deque<std::shared_ptr<Job>> queue_;  // live jobs, FIFO
};

}  // namespace

void SetParallelism(std::size_t threads) {
  GT_CHECK_GE(threads, 1u) << "parallelism must be at least 1";
  g_parallelism.store(threads, std::memory_order_relaxed);
  if (threads > 1) ThreadPool::Instance().EnsureWorkers(threads - 1);
}

std::size_t GetParallelism() { return g_parallelism.load(std::memory_order_relaxed); }

bool ParseThreadCount(std::string_view text, std::size_t* threads, std::string* error) {
  std::uint64_t parsed = 0;
  if (!ParseUint64(text, &parsed) || parsed == 0) {
    if (error != nullptr) {
      *error = "must be a positive integer, got '" + std::string(text) + "'";
    }
    return false;
  }
  if (parsed > kMaxConfiguredThreads) {
    if (error != nullptr) {
      *error = "must be between 1 and " + std::to_string(kMaxConfiguredThreads) +
               ", got '" + std::string(text) + "'";
    }
    return false;
  }
  *threads = static_cast<std::size_t>(parsed);
  return true;
}

PoolStats GetPoolStats() {
  PoolStats stats;
  stats.jobs = PoolJobsCounter().Value();
  stats.chunks = PoolChunksCounter().Value();
  return stats;
}

void ResetPoolStats() {
  // Resets only the pool's two registry counters; the core exec counters are
  // untouched (ResetExecCounters zeroes the whole registry in one generation).
  PoolJobsCounter().Reset();
  PoolChunksCounter().Reset();
}

ParallelPartition::ParallelPartition(std::size_t count, std::size_t min_per_chunk,
                                     std::size_t alignment) {
  GT_CHECK_GE(alignment, 1u);
  std::size_t chunks = std::min(GetParallelism(),
                                min_per_chunk == 0 ? count : count / min_per_chunk);
  chunks = std::max<std::size_t>(chunks, 1);

  bounds_.reserve(chunks + 1);
  bounds_.push_back(0);
  std::size_t per_chunk = (count + chunks - 1) / chunks;
  // Round the chunk size up to the alignment so only the last chunk ends
  // off-boundary (at `count` itself).
  per_chunk = ((per_chunk + alignment - 1) / alignment) * alignment;
  for (std::size_t c = 1; c < chunks; ++c) {
    std::size_t bound = std::min(count, c * per_chunk);
    if (bound <= bounds_.back()) break;  // fewer effective chunks than planned
    bounds_.push_back(bound);
  }
  bounds_.push_back(count);
  // Guard against a duplicate final bound when the loop already reached count.
  if (bounds_.size() >= 2 && bounds_[bounds_.size() - 2] == count) {
    bounds_.pop_back();
  }
  if (bounds_.size() == 1) bounds_.push_back(count);
}

void internal_RunOnPool(std::size_t chunks, const std::function<void(std::size_t)>& fn) {
  ThreadPool::Instance().RunChunks(chunks, fn);
}

}  // namespace graphtempo
