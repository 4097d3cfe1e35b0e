/// \file threadpool.h
/// \brief Fixed-size worker pool: the serving engine's request workers and
/// the training pipeline's sample and gather lanes.

#ifndef ALIGRAPH_COMMON_THREADPOOL_H_
#define ALIGRAPH_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace aligraph {

/// \brief A fixed pool of threads draining a shared FIFO of tasks.
///
/// Submit() enqueues a task; Wait() blocks until every submitted task has
/// finished. The pool is reusable across Wait() rounds. The destructor
/// finishes every enqueued task and joins the threads; nothing else stops
/// them, so a Submit on a live pool always runs its task.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some pool thread.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running.
  void Wait();

 private:
  void WorkerLoop();

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
