/// \file bounded_queue.h
/// \brief Bounded MPMC handoff queue between pipeline stages.
///
/// The stage queues are what turn three sequential phases into a pipeline:
/// a producer stage pushes finished batches and blocks only when `capacity`
/// batches are already in flight (that bound IS the double-buffering memory
/// cap — at most `capacity` SampledBlocks live between any two stages), and
/// a consumer stage pops in FIFO order, blocking only when the producer has
/// fallen behind. Both directions of blocking are stalls the pipeline wants
/// to see: the queue charges producer wait time and consumer wait time to
/// separate "pipeline.stall_us.*" counters and keeps a depth gauge current,
/// so a trace showing bubbles can be cross-checked against which queue ran
/// full (downstream too slow) or empty (upstream too slow).
///
/// A blocked side sleeps on a condvar under the queue's one mutex. Training
/// hands a batch across every few milliseconds, so a futex sleep and wake
/// per handoff is noise next to the stage bodies.

#ifndef ALIGRAPH_PIPELINE_BOUNDED_QUEUE_H_
#define ALIGRAPH_PIPELINE_BOUNDED_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>

#include "common/logging.h"
#include "obs/metrics.h"

namespace aligraph {
namespace pipeline {

/// \brief Bounded blocking FIFO. Push blocks while full, Pop while empty;
/// Close() wakes every waiter — pushes after Close are rejected, pops drain
/// the remaining items and then return false.
template <typename T>
class BoundedQueue {
 public:
  /// \param capacity max items in flight (>= 1).
  /// \param depth gauge updated with the queue size on every transition.
  /// \param push_stall_us counter charged with producer-side blocked time.
  /// \param pop_stall_us counter charged with consumer-side blocked time.
  /// Any observability handle may be null (detached).
  explicit BoundedQueue(size_t capacity, obs::Gauge* depth = nullptr,
                        obs::Counter* push_stall_us = nullptr,
                        obs::Counter* pop_stall_us = nullptr)
      : capacity_(capacity), depth_(depth), push_stall_us_(push_stall_us),
        pop_stall_us_(pop_stall_us) {
    ALIGRAPH_CHECK_GT(capacity, 0u);
  }

  /// Blocks until a slot frees up, then enqueues. Returns false (dropping
  /// `value`) when the queue was closed.
  bool Push(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    Wait(lock, cv_not_full_, push_stall_us_,
         [this] { return items_.size() < capacity_ || closed_; });
    if (closed_) return false;
    items_.push_back(std::move(value));
    Publish();
    lock.unlock();
    cv_not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available, pops it in FIFO order. Returns
  /// false when the queue is closed AND drained. `*out`'s previous value is
  /// released after the lock is dropped, so a consumer recycling one slot
  /// never frees its last item while the producer waits on the mutex.
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mu_);
    Wait(lock, cv_not_empty_, pop_stall_us_,
         [this] { return !items_.empty() || closed_; });
    if (items_.empty()) return false;
    T item = std::move(items_.front());
    items_.pop_front();
    Publish();
    lock.unlock();
    cv_not_full_.notify_one();
    *out = std::move(item);
    return true;
  }

  /// Rejects future pushes and wakes all waiters; already-queued items
  /// stay poppable. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_not_full_.notify_all();
    cv_not_empty_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  /// Sleeps on `cv` until `ready`. Called with `lock` held. When `ready`
  /// is false on entry — also for a side that lost the last item or slot to
  /// a peer while it waited for the lock — the time until it holds is
  /// charged to `stall_us`.
  template <typename Ready>
  static void Wait(std::unique_lock<std::mutex>& lock,
                   std::condition_variable& cv, obs::Counter* stall_us,
                   const Ready& ready) {
    if (ready()) return;
    const auto since = std::chrono::steady_clock::now();
    cv.wait(lock, ready);
    if (stall_us != nullptr) {
      stall_us->Add(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - since)
              .count()));
    }
  }

  /// Keeps the depth gauge current. Under mu_.
  void Publish() {
    if (depth_ != nullptr) depth_->Set(static_cast<double>(items_.size()));
  }

  const size_t capacity_;
  obs::Gauge* depth_;
  obs::Counter* push_stall_us_;
  obs::Counter* pop_stall_us_;
  mutable std::mutex mu_;
  std::condition_variable cv_not_full_;
  std::condition_variable cv_not_empty_;
  std::deque<T> items_;  // guarded by mu_
  bool closed_ = false;  // guarded by mu_
};

}  // namespace pipeline
}  // namespace aligraph

#endif  // ALIGRAPH_PIPELINE_BOUNDED_QUEUE_H_
