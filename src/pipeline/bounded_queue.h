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
/// Waiting is spin-then-park. When the other side catches a waiter within
/// microseconds, a futex sleep and wake would cost more than the wait. So a
/// blocked side first polls the atomic mirrors of the item count and the
/// closed flag for kSpinBudget, yielding its CPU between polls (stages may
/// outnumber cores), and only then parks on a condvar. The items and the
/// park/wake protocol stay under one mutex; a side notifies only when the
/// other has a parked waiter, so handing an item to a stage that is busy
/// or still spinning needs no futex wake. Spin and park time are both
/// charged as stall.

#ifndef ALIGRAPH_PIPELINE_BOUNDED_QUEUE_H_
#define ALIGRAPH_PIPELINE_BOUNDED_QUEUE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <thread>

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
  /// How long a blocked Push / Pop polls before parking on the condvar.
  static constexpr std::chrono::microseconds kSpinBudget{50};

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
    auto can_push = [this] {
      return count_.load(std::memory_order_acquire) < capacity_ ||
             closed_.load(std::memory_order_acquire);
    };
    Stall stall = Spin(can_push);
    std::unique_lock<std::mutex> lock(mu_);
    if (!can_push()) Park(lock, cv_not_full_, push_waiters_, can_push, stall);
    stall.Charge(push_stall_us_);
    if (closed_.load(std::memory_order_relaxed)) return false;
    items_.push_back(std::move(value));
    Publish();
    const bool wake = pop_waiters_ > 0;
    lock.unlock();
    if (wake) cv_not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available, pops it in FIFO order. Returns
  /// false when the queue is closed AND drained. `*out`'s previous value is
  /// released after the lock is dropped, so a consumer recycling one slot
  /// never frees its last item while the producer waits on the mutex.
  bool Pop(T* out) {
    auto can_pop = [this] {
      return count_.load(std::memory_order_acquire) > 0 ||
             closed_.load(std::memory_order_acquire);
    };
    Stall stall = Spin(can_pop);
    std::unique_lock<std::mutex> lock(mu_);
    if (!can_pop()) Park(lock, cv_not_empty_, pop_waiters_, can_pop, stall);
    stall.Charge(pop_stall_us_);
    if (items_.empty()) return false;
    T item = std::move(items_.front());
    items_.pop_front();
    Publish();
    const bool wake = push_waiters_ > 0;
    lock.unlock();
    if (wake) cv_not_full_.notify_one();
    *out = std::move(item);
    return true;
  }

  /// Rejects future pushes and wakes all waiters, spinning or parked;
  /// already-queued items stay poppable. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_.store(true, std::memory_order_release);
    }
    cv_not_full_.notify_all();
    cv_not_empty_.notify_all();
  }

  size_t size() const { return count_.load(std::memory_order_acquire); }

 private:
  /// When a side first found itself blocked (unset if it never was).
  struct Stall {
    bool blocked = false;
    std::chrono::steady_clock::time_point since;

    void Start() {
      if (blocked) return;
      blocked = true;
      since = std::chrono::steady_clock::now();
    }

    void Charge(obs::Counter* counter) const {
      if (!blocked || counter == nullptr) return;
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since);
      counter->Add(static_cast<uint64_t>(us.count()));
    }
  };

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }

  /// Polls `ready` (lock-free) for up to kSpinBudget. Returns the stall
  /// start if `ready` was false on entry; the caller re-checks under the
  /// lock and parks if the budget ran out.
  template <typename Ready>
  static Stall Spin(const Ready& ready) {
    Stall stall;
    if (ready()) return stall;
    stall.Start();
    const auto deadline = stall.since + kSpinBudget;
    while (!ready() && std::chrono::steady_clock::now() < deadline) {
      for (int i = 0; i < 4; ++i) CpuRelax();
      std::this_thread::yield();
    }
    return stall;
  }

  /// Sleeps on `cv` until `ready`, counted in `waiters` so the other side
  /// knows to notify. Called with `lock` held. Starts `stall` if Spin did
  /// not: a side that found the queue ready but lost the item or slot to a
  /// peer before taking the lock parks here without having spun.
  template <typename Ready>
  static void Park(std::unique_lock<std::mutex>& lock,
                   std::condition_variable& cv, size_t& waiters,
                   const Ready& ready, Stall& stall) {
    stall.Start();
    ++waiters;
    cv.wait(lock, ready);
    --waiters;
  }

  /// Mirrors the item count for spinners and the depth gauge. Under mu_.
  void Publish() {
    count_.store(items_.size(), std::memory_order_release);
    if (depth_ != nullptr) depth_->Set(static_cast<double>(items_.size()));
  }

  const size_t capacity_;
  obs::Gauge* depth_;
  obs::Counter* push_stall_us_;
  obs::Counter* pop_stall_us_;
  std::mutex mu_;
  std::condition_variable cv_not_full_;
  std::condition_variable cv_not_empty_;
  std::deque<T> items_;                // guarded by mu_
  size_t push_waiters_ = 0;            // parked producers, guarded by mu_
  size_t pop_waiters_ = 0;             // parked consumers, guarded by mu_
  std::atomic<size_t> count_{0};       // == items_.size(), written under mu_
  std::atomic<bool> closed_{false};    // written under mu_
};

}  // namespace pipeline
}  // namespace aligraph

#endif  // ALIGRAPH_PIPELINE_BOUNDED_QUEUE_H_
