/// \file timer.h
/// \brief Wall-clock stopwatch used by benchmarks and the cluster simulator.

#ifndef ALIGRAPH_COMMON_TIMER_H_
#define ALIGRAPH_COMMON_TIMER_H_

#include <chrono>
#include <cstdint>

namespace aligraph {

/// \brief Monotonic stopwatch; starts on construction.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction / last Reset, in the requested unit.
  double ElapsedMillis() const { return ElapsedNanos() * 1e-6; }
  double ElapsedMicros() const { return ElapsedNanos() * 1e-3; }
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace aligraph

#endif  // ALIGRAPH_COMMON_TIMER_H_
