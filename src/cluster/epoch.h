/// \file epoch.h
/// \brief Epoch versioning for online graph updates: a global monotone epoch
/// counter, RAII reader pins, and the min-active-epoch computation that
/// drives reclamation of retired adjacency versions.
///
/// Contract (see DESIGN.md §15): writers push a whole update batch at epoch
/// E+1, one new version per touched vertex that every copy of it serves,
/// then advance the global counter once — so the batch becomes visible to
/// all workers atomically. Readers pin the current epoch for the duration
/// of a multi-read scope (a whole k-hop) and resolve every adjacency read as
/// "the newest version with epoch <= pinned", which is what makes a k-hop
/// unable to observe a mix of two epochs; an unpinned cluster read pins
/// internally for its own length. When a writer pushes a vertex's new
/// version it frees, in the same step, every version behind the newest one
/// at or below the minimum active epoch: each live reader's walk stops at
/// that version or before it, so none can reach what is freed.

#ifndef ALIGRAPH_CLUSTER_EPOCH_H_
#define ALIGRAPH_CLUSTER_EPOCH_H_

#include <atomic>
#include <cstdint>

namespace aligraph {

namespace obs {
class Counter;
}  // namespace obs

/// Sentinel epoch meaning "resolve against the current global epoch at call
/// time". Read paths default to it; pinned readers pass their pin's epoch.
inline constexpr uint64_t kEpochCurrent = ~uint64_t{0};

class EpochManager;

/// \brief RAII registration of one reader at one epoch. Movable, not
/// copyable; a default-constructed pin is inert (epoch 0, nothing to
/// release) — the form non-versioned sources hand out.
class EpochPin {
 public:
  EpochPin() = default;
  EpochPin(EpochPin&& other) noexcept
      : manager_(other.manager_), slot_(other.slot_), epoch_(other.epoch_) {
    other.manager_ = nullptr;
  }
  EpochPin& operator=(EpochPin&& other) noexcept {
    if (this != &other) {
      Release();
      manager_ = other.manager_;
      slot_ = other.slot_;
      epoch_ = other.epoch_;
      other.manager_ = nullptr;
    }
    return *this;
  }
  ~EpochPin() { Release(); }

  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;

  /// The epoch every read in this pin's scope resolves against.
  uint64_t epoch() const { return epoch_; }
  bool pinned() const { return manager_ != nullptr; }

  /// Releases the registration early (idempotent).
  void Release();

 private:
  friend class EpochManager;
  EpochPin(EpochManager* manager, uint32_t slot, uint64_t epoch)
      : manager_(manager), slot_(slot), epoch_(epoch) {}

  EpochManager* manager_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t epoch_ = 0;
};

/// \brief Global epoch counter plus a fixed slot table of pinned readers.
///
/// All operations are lock-free; pin registration uses the classic
/// epoch-reclamation handshake (store the observed epoch, re-read, repeat
/// until stable) so a pin is either visible to the writer's min-active scan
/// or already holds the post-advance epoch. When every slot is taken,
/// Acquire registers an *overflow* pin instead: it publishes itself in a
/// live-overflow count, then reads the epoch. A writer that sees a nonzero
/// count treats the minimum active epoch as 0 and prunes nothing; one that
/// saw zero computed its minimum before the overflow pin read the epoch,
/// so that minimum is <= the pin's epoch. Either way no version an
/// overflow pin can reach is reclaimed while it is live.
class EpochManager {
 public:
  static constexpr uint32_t kMaxPins = 64;

  EpochManager();

  /// Current global epoch. 0 until the first update batch is published.
  uint64_t current() const { return current_.load(std::memory_order_acquire); }

  /// Cheap hot-path probe: has any update batch ever been published?
  bool versioned() const {
    return current_.load(std::memory_order_relaxed) != 0;
  }

  /// Writer side: makes all state staged at epoch current()+1 visible.
  /// Returns the new epoch. Callers must serialize Advance externally (the
  /// cluster's update mutex does).
  uint64_t Advance() {
    return current_.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// Reader side: registers this reader at the current epoch.
  EpochPin Acquire() {
    for (uint32_t i = 0; i < kMaxPins; ++i) {
      uint64_t expected = kIdle;
      // Reserve the slot with the current epoch, then re-read the counter:
      // if a writer advanced in between, republish the newer epoch until
      // the two agree. Writers scan slots before advancing, so a stable
      // published epoch is always <= every later min-active computation.
      uint64_t e = current_.load(std::memory_order_seq_cst);
      if (!slots_[i].compare_exchange_strong(expected, e,
                                             std::memory_order_seq_cst)) {
        continue;
      }
      for (;;) {
        const uint64_t e2 = current_.load(std::memory_order_seq_cst);
        if (e2 == e) break;
        e = e2;
        slots_[i].store(e, std::memory_order_seq_cst);
      }
      return EpochPin(this, i, e);
    }
    // Slot table full: publish an overflow pin, then read the epoch (see
    // the class comment for why this order keeps its versions alive).
    overflow_pins_.fetch_add(1, std::memory_order_seq_cst);
    CountOverflow();
    return EpochPin(this, kOverflowSlot,
                    current_.load(std::memory_order_seq_cst));
  }

  /// Oldest epoch any pinned reader may still resolve against; current()
  /// when nobody is pinned, 0 while any overflow pin is live (their epochs
  /// are not tracked). Writers prune versions superseded at or below this
  /// value.
  uint64_t MinActiveEpoch() const {
    if (overflow_pins_.load(std::memory_order_seq_cst) > 0) return 0;
    uint64_t min_epoch = current_.load(std::memory_order_seq_cst);
    for (const auto& s : slots_) {
      const uint64_t e = s.load(std::memory_order_seq_cst);
      if (e != kIdle && e < min_epoch) min_epoch = e;
    }
    return min_epoch;
  }

  /// Number of currently registered pins, overflow pins included
  /// (diagnostics / tests).
  uint32_t active_pins() const {
    uint32_t n = overflow_pins_.load(std::memory_order_relaxed);
    for (const auto& s : slots_) {
      if (s.load(std::memory_order_relaxed) != kIdle) ++n;
    }
    return n;
  }

 private:
  friend class EpochPin;
  static constexpr uint64_t kIdle = ~uint64_t{0};
  static constexpr uint32_t kOverflowSlot = kMaxPins;

  void ReleaseSlot(uint32_t slot) {
    if (slot == kOverflowSlot) {
      overflow_pins_.fetch_sub(1, std::memory_order_seq_cst);
    } else {
      slots_[slot].store(kIdle, std::memory_order_seq_cst);
    }
  }

  /// Adds one to the "epoch.pin_overflow" counter when a registry was
  /// attached at construction.
  void CountOverflow();

  std::atomic<uint64_t> current_{0};
  std::atomic<uint64_t> slots_[kMaxPins];
  /// Live pins taken while every slot was busy.
  std::atomic<uint32_t> overflow_pins_{0};
  obs::Counter* obs_overflow_ = nullptr;
};

inline void EpochPin::Release() {
  if (manager_ != nullptr) {
    manager_->ReleaseSlot(slot_);
    manager_ = nullptr;
  }
}

}  // namespace aligraph

#endif  // ALIGRAPH_CLUSTER_EPOCH_H_
