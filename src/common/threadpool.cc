#include "common/threadpool.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aligraph {

ThreadPool::ThreadPool(size_t num_threads, const std::string& lane)
    : lane_(lane) {
  ALIGRAPH_CHECK_GT(num_threads, 0u);
  if (!lane_.empty()) {
    queue_depth_ = obs::DefaultGauge("pool." + lane_ + ".queue_depth");
  }
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

Status ThreadPool::Submit(std::function<void()> task) {
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
    // Submit/Shutdown race surface: once stop_ is set the workers may
    // already be gone, so a task enqueued here would never run (or worse,
    // the queue would outlive the join). Reject under the same lock that
    // Shutdown takes, so the caller gets a Status instead of a silent drop.
    if (stop_) {
      return Status::FailedPrecondition(
          "ThreadPool" + (lane_.empty() ? "" : " lane '" + lane_ + "'") +
          " is shut down; task rejected");
    }
    queue_.push_back(std::move(task));
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<double>(queue_.size()));
    }
  }
  cv_task_.notify_one();
  return Status::OK();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  const size_t workers = std::min(n, threads_.size());
  const size_t chunk = (n + workers - 1) / workers;
  std::atomic<size_t> next{0};
  for (size_t w = 0; w < workers; ++w) {
    const Status submitted = Submit([&next, n, chunk, &fn] {
      // One span per worker task (not per index): visible in the timeline
      // without flooding the span rings at large n.
      obs::ScopedSpan span("pool/parallel_for");
      while (true) {
        const size_t begin = next.fetch_add(chunk);
        if (begin >= n) break;
        const size_t end = std::min(begin + chunk, n);
        for (size_t i = begin; i < end; ++i) fn(i);
      }
    });
    // Shut down mid-loop: the tasks already accepted still run and read
    // `next` and `fn` off this frame, so wait for them. Each task loops
    // until `next` reaches n, so one accepted task covers every index.
    if (!submitted.ok()) break;
  }
  Wait();
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
      if (queue_depth_ != nullptr) {
        queue_depth_->Set(static_cast<double>(queue_.size()));
      }
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
