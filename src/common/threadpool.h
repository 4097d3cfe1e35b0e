/// \file threadpool.h
/// \brief Fixed-size worker pool used to simulate cluster workers, to
/// parallelize graph building and training, and — as named lanes — to run
/// the stages of the block pipeline on dedicated threads.

#ifndef ALIGRAPH_COMMON_THREADPOOL_H_
#define ALIGRAPH_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace aligraph {

namespace obs {
class Gauge;
}  // namespace obs

/// \brief A fixed pool of threads draining a shared FIFO of tasks.
///
/// Submit() enqueues a task; Wait() blocks until every submitted task has
/// finished. The pool is reusable across Wait() rounds. Shutdown() drains
/// the queue, joins the threads and fails every later Submit with a
/// FailedPrecondition Status — the destructor calls it implicitly.
///
/// A pool constructed with a lane name is a *named lane*: it resolves a
/// "pool.<lane>.queue_depth" gauge from the default metrics registry (when
/// one is attached at construction) and keeps it current on every enqueue /
/// dequeue, so per-lane backlogs — e.g. the pipeline's sample and gather
/// lanes — are visible in run reports next to the pipeline stage metrics.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads, const std::string& lane = "");
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some pool thread. Returns OK when the
  /// task was enqueued; FailedPrecondition — without enqueueing or aborting
  /// — when the pool has been shut down.
  Status Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running.
  void Wait();

  /// Runs fn(i) for every i in [0, n), spread over the pool, and waits.
  /// Chunks the index space so per-call overhead stays negligible. After
  /// Shutdown() this is a no-op (the submits fail, Wait returns at once);
  /// racing Shutdown() it runs either no index or every index.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Finishes every already-enqueued task, joins the worker threads and
  /// rejects all later Submits. Idempotent; called by the destructor.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }
  const std::string& lane() const { return lane_; }

 private:
  void WorkerLoop();

  std::string lane_;
  obs::Gauge* queue_depth_ = nullptr;  ///< named lanes only; else null
  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace aligraph

#endif  // ALIGRAPH_COMMON_THREADPOOL_H_
