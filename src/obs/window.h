/// \file window.h
/// \brief Fixed-interval windowed time-series over the metrics substrate: a
/// bounded ring of per-interval aggregates (count, sum, optional fixed
/// buckets) supporting rate and percentile-over-window queries.
///
/// The registry's counters and histograms are cumulative: a run report
/// shows WHERE a run ended, never how it got there. A tail regression that
/// only appears after the lanes saturate, a goodput sag in the middle of an
/// overload burst — both are invisible in end-of-run totals. WindowedSeries
/// buckets observations by a fixed interval of the MODELED clock (the same
/// clock the serving sim gates), so bench_serve can emit a latency/goodput
/// timeline instead of a single end-of-run point, deterministically.
///
/// Record / Count feed it per-event observations stamped with their modeled
/// time (a completion at t with latency v; an arrival at t).
///
/// The ring holds the most recent `capacity` windows. Observations for
/// windows that already fell off the ring (and old windows evicted when
/// time advances) are folded into evicted_count/evicted_sum rather than
/// dropped, so conservation holds by construction:
///   retained_count() + evicted_count() == total_count()
/// and tests can assert that no observation was ever lost. Not thread-safe:
/// feed it from one logical stream (the serving sim's single-threaded
/// sample stage, a bench main loop).

#ifndef ALIGRAPH_OBS_WINDOW_H_
#define ALIGRAPH_OBS_WINDOW_H_

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "obs/metrics.h"

namespace aligraph {
namespace obs {

/// \brief One retained interval of a WindowedSeries.
struct SeriesWindow {
  int64_t index = 0;  ///< absolute window number: floor(t / interval)
  uint64_t count = 0;
  double sum = 0;
  /// Per-bucket counts when the series was built with bounds (same layout
  /// as HistogramSnapshot: bounds.size() + 1, last = overflow); empty
  /// otherwise.
  std::vector<uint64_t> buckets;

  double start_us(double interval_us) const {
    return static_cast<double>(index) * interval_us;
  }
};

/// \brief Bounded ring of fixed-interval aggregates.
class WindowedSeries {
 public:
  /// \param interval_us width of one window on the feeding clock.
  /// \param capacity most recent windows retained (older ones are evicted
  ///        into the conservation tallies).
  /// \param bounds optional histogram bucket upper bounds for
  ///        percentile-over-window queries (empty = counts/sums only).
  WindowedSeries(double interval_us, size_t capacity,
                 std::span<const double> bounds = {});

  /// Records one observation of `value` at modeled time `t_us`.
  void Record(double t_us, double value);

  /// Counts `n` events at modeled time `t_us` (no value, no buckets).
  void Count(double t_us, uint64_t n = 1);

  double interval_us() const { return interval_us_; }
  size_t capacity() const { return capacity_; }
  const std::vector<double>& bounds() const { return bounds_; }

  /// Retained windows, oldest first. Windows with no observations between
  /// two active ones are materialized (zero-filled) so the timeline has no
  /// silent gaps.
  const std::deque<SeriesWindow>& windows() const { return windows_; }

  /// Absolute index range of retained windows; first > last when empty.
  int64_t first_index() const;
  int64_t last_index() const;

  /// Window `index`'s aggregates, zero-filled when outside the retained
  /// range — callers can walk a shared index range across several series.
  SeriesWindow At(int64_t index) const;

  /// Events per second of window `index`: count / interval.
  double RatePerSec(int64_t index) const;

  /// Percentile over window `index`'s bucketed values (requires bounds;
  /// 0 when the window is empty or the series has no buckets).
  double Percentile(int64_t index, double p) const;

  // --- Conservation tallies.
  uint64_t total_count() const { return total_count_; }
  double total_sum() const { return total_sum_; }
  uint64_t evicted_count() const { return evicted_count_; }
  double evicted_sum() const { return evicted_sum_; }
  /// Sum of retained window counts (== total_count - evicted_count).
  uint64_t retained_count() const;

 private:
  /// The retained window for absolute index `w`, advancing/evicting as
  /// needed; null when `w` predates the ring (observation -> evicted).
  SeriesWindow* WindowFor(int64_t w);

  const double interval_us_;
  const size_t capacity_;
  std::vector<double> bounds_;
  std::deque<SeriesWindow> windows_;  ///< contiguous indices, oldest first
  uint64_t total_count_ = 0;
  double total_sum_ = 0;
  uint64_t evicted_count_ = 0;
  double evicted_sum_ = 0;
};

}  // namespace obs
}  // namespace aligraph

#endif  // ALIGRAPH_OBS_WINDOW_H_
