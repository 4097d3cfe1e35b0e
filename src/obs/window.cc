#include "obs/window.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace aligraph {
namespace obs {

WindowedSeries::WindowedSeries(double interval_us, size_t capacity,
                               std::span<const double> bounds)
    : interval_us_(interval_us),
      capacity_(capacity == 0 ? 1 : capacity),
      bounds_(bounds.begin(), bounds.end()) {
  ALIGRAPH_CHECK_GT(interval_us_, 0.0);
}

SeriesWindow* WindowedSeries::WindowFor(int64_t w) {
  if (windows_.empty()) {
    windows_.push_back(SeriesWindow{});
    windows_.back().index = w;
    if (!bounds_.empty()) windows_.back().buckets.assign(bounds_.size() + 1, 0);
    return &windows_.back();
  }
  // A jump past the whole ring makes every retained window stale: fold
  // them into the eviction tallies and restart at `w` instead of
  // materializing an unbounded run of empty windows.
  if (w - windows_.back().index > static_cast<int64_t>(capacity_)) {
    for (const SeriesWindow& old : windows_) {
      evicted_count_ += old.count;
      evicted_sum_ += old.sum;
    }
    windows_.clear();
    windows_.push_back(SeriesWindow{});
    windows_.back().index = w;
    if (!bounds_.empty()) windows_.back().buckets.assign(bounds_.size() + 1, 0);
    return &windows_.back();
  }
  // Materialize forward so the retained range stays contiguous (a quiet
  // window is a data point, not a gap), evicting from the front once the
  // ring is full.
  while (w > windows_.back().index) {
    SeriesWindow next;
    next.index = windows_.back().index + 1;
    if (!bounds_.empty()) next.buckets.assign(bounds_.size() + 1, 0);
    windows_.push_back(std::move(next));
    while (windows_.size() > capacity_) {
      evicted_count_ += windows_.front().count;
      evicted_sum_ += windows_.front().sum;
      windows_.pop_front();
    }
  }
  if (w < windows_.front().index) return nullptr;  // fell off the ring
  return &windows_[static_cast<size_t>(w - windows_.front().index)];
}

void WindowedSeries::Record(double t_us, double value) {
  total_count_ += 1;
  total_sum_ += value;
  SeriesWindow* win =
      WindowFor(static_cast<int64_t>(std::floor(t_us / interval_us_)));
  if (win == nullptr) {
    evicted_count_ += 1;
    evicted_sum_ += value;
    return;
  }
  win->count += 1;
  win->sum += value;
  if (!bounds_.empty()) {
    const size_t b = static_cast<size_t>(
        std::upper_bound(bounds_.begin(), bounds_.end(), value) -
        bounds_.begin());
    win->buckets[b] += 1;
  }
}

void WindowedSeries::Count(double t_us, uint64_t n) {
  if (n == 0) return;
  total_count_ += n;
  SeriesWindow* win =
      WindowFor(static_cast<int64_t>(std::floor(t_us / interval_us_)));
  if (win == nullptr) {
    evicted_count_ += n;
    return;
  }
  win->count += n;
}

int64_t WindowedSeries::first_index() const {
  return windows_.empty() ? 0 : windows_.front().index;
}

int64_t WindowedSeries::last_index() const {
  return windows_.empty() ? -1 : windows_.back().index;
}

SeriesWindow WindowedSeries::At(int64_t index) const {
  SeriesWindow out;
  out.index = index;
  if (windows_.empty() || index < windows_.front().index ||
      index > windows_.back().index) {
    if (!bounds_.empty()) out.buckets.assign(bounds_.size() + 1, 0);
    return out;
  }
  return windows_[static_cast<size_t>(index - windows_.front().index)];
}

double WindowedSeries::RatePerSec(int64_t index) const {
  return static_cast<double>(At(index).count) / (interval_us_ * 1e-6);
}

double WindowedSeries::Percentile(int64_t index, double p) const {
  if (bounds_.empty()) return 0.0;
  const SeriesWindow win = At(index);
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts = win.buckets;
  snap.sum = win.sum;
  // Bucketed observations only: Count()-style events carry no value and
  // must not dilute the percentile rank.
  for (const uint64_t c : win.buckets) snap.count += c;
  return snap.Percentile(p);
}

uint64_t WindowedSeries::retained_count() const {
  uint64_t total = 0;
  for (const SeriesWindow& w : windows_) total += w.count;
  return total;
}

}  // namespace obs
}  // namespace aligraph
