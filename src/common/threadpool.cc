#include "common/threadpool.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace aligraph {

ThreadPool::ThreadPool(size_t num_threads) {
  ALIGRAPH_CHECK_GT(num_threads, 0u);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Cross-thread causal handoff: capture the submitter's trace context so
  // spans the task opens on a worker thread parent under the submitting
  // span instead of minting disconnected root traces.
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  if (ctx.trace_id != 0) {
    task = [ctx, inner = std::move(task)] {
      obs::ScopedTraceContext adopt(ctx);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Only the destructor sets stop_: a Submit racing it is a use after
    // the pool's lifetime, and its task would never run.
    ALIGRAPH_CHECK(!stop_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace aligraph
