#include "obs/metrics.h"

#include <algorithm>
#include <array>

namespace aligraph {
namespace obs {

size_t ThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kNumShards;
  return slot;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double below = static_cast<double>(cumulative);
    cumulative += counts[i];
    if (static_cast<double>(cumulative) >= rank) {
      if (i >= bounds.size()) {
        // Overflow bucket: no upper edge to interpolate toward.
        return bounds.empty() ? 0.0 : bounds.back();
      }
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double frac = std::clamp(
          (rank - below) / static_cast<double>(counts[i]), 0.0, 1.0);
      return lo + (bounds[i] - lo) * frac;
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::string name, std::span<const double> bounds)
    : name_(std::move(name)), bounds_(bounds.begin(), bounds.end()) {
  shards_.reserve(kNumShards);
  for (size_t i = 0; i < kNumShards; ++i) {
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

void Histogram::Record(double v) {
  Shard& s = *shards_[ThreadShard()];
  const size_t b = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  s.buckets[b].fetch_add(1, std::memory_order_relaxed);
  s.count.fetch_add(1, std::memory_order_relaxed);
  // atomic<double>::fetch_add is C++20; relaxed is fine, reports only need
  // the eventual total.
  s.sum.fetch_add(v, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  for (const auto& s : shards_) {
    for (size_t b = 0; b < snap.counts.size(); ++b) {
      snap.counts[b] += s->buckets[b].load(std::memory_order_relaxed);
    }
    snap.count += s->count.load(std::memory_order_relaxed);
    snap.sum += s->sum.load(std::memory_order_relaxed);
  }
  return snap;
}

uint64_t Histogram::Count() const {
  uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->count.load(std::memory_order_relaxed);
  }
  return total;
}

std::span<const double> LatencyBoundsUs() {
  static const std::array<double, 20> kBounds = {
      1,    2,    5,    10,   20,    50,    100,   200,   500,   1000,
      2000, 5000, 1e4,  2e4,  5e4,   1e5,   2e5,   5e5,   1e6,   1e7};
  return kBounds;
}

std::span<const double> SizeBounds() {
  static const std::array<double, 11> kBounds = {
      1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576};
  return kBounds;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(name)))
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(name))).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = LatencyBoundsUs();
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(
                                new Histogram(name, bounds)))
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->Snapshot();
  }
  return snap;
}

namespace {
std::atomic<MetricsRegistry*> g_default{nullptr};
}  // namespace

void SetDefault(MetricsRegistry* registry) {
  g_default.store(registry, std::memory_order_release);
  internal::default_generation.fetch_add(1, std::memory_order_release);
}

MetricsRegistry* Default() {
  return g_default.load(std::memory_order_acquire);
}

Counter* DefaultCounter(const std::string& name) {
  MetricsRegistry* r = Default();
  return r == nullptr ? nullptr : r->GetCounter(name);
}

Gauge* DefaultGauge(const std::string& name) {
  MetricsRegistry* r = Default();
  return r == nullptr ? nullptr : r->GetGauge(name);
}

Histogram* DefaultHistogram(const std::string& name,
                            std::span<const double> bounds) {
  MetricsRegistry* r = Default();
  return r == nullptr ? nullptr : r->GetHistogram(name, bounds);
}

}  // namespace obs
}  // namespace aligraph
