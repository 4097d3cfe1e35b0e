/// \file metrics.h
/// \brief Process-wide metrics registry: named counters, gauges and
/// fixed-bucket histograms with per-thread sharding.
///
/// Every headline number of the paper's evaluation is a measurement, so the
/// system layers export their counters through one substrate instead of
/// ad-hoc per-class fields. Hot-path increments take no lock: a counter is
/// an array of cache-line padded atomic cells, each thread hashes to its
/// own cell, and increments are relaxed fetch-adds — no shared cache line,
/// no lock, no contention.
/// Reads (Value / Snapshot) sum the cells; they are monotonic but not a
/// consistent cut across metrics, which is all benches and reports need.
///
/// Attachment model: instrumented code records through raw handles resolved
/// from the process-wide default registry (SetDefault); when no registry is
/// attached the handles are null and the instrumented paths reduce to one
/// branch. Handles stay valid for the lifetime of the registry — metrics are
/// never removed — so a registry must stay alive until the instrumented work
/// that may hold its handles has finished.
///
/// Per-call sites (samplers, block relabelling and gathering) never look a
/// name up on their hot path: DefaultHandles<T>() keeps one resolved handle
/// struct per thread, keyed by a generation counter that every SetDefault
/// bumps, and re-resolves it only when the generation moved. Steady state is
/// one atomic load and one compare. Keying on the generation rather than the
/// registry address means a registry destroyed and re-created at the same
/// address is still re-resolved. Long-lived components (clusters, engines,
/// pools) may instead resolve their handles once at construction.

#ifndef ALIGRAPH_OBS_METRICS_H_
#define ALIGRAPH_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace aligraph {
namespace obs {

/// Number of per-thread shards per metric. Threads are assigned shards
/// round-robin; with up to kNumShards concurrent writers every increment
/// lands on a private cache line.
inline constexpr size_t kNumShards = 16;

/// Round-robin shard index of the calling thread (stable per thread).
size_t ThreadShard();

/// \brief Monotonic counter with per-thread sharded cells.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    shards_[ThreadShard()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum over all shards.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Cell& c : shards_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Cell {
    std::atomic<uint64_t> v{0};
  };

  std::string name_;
  Cell shards_[kNumShards];
};

/// \brief Last-write-wins floating point gauge (no sharding: gauges are
/// set from bookkeeping paths, not hot loops).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  std::string name_;
  std::atomic<double> value_{0.0};
};

/// \brief Plain (copyable) histogram state for reports and tests.
struct HistogramSnapshot {
  std::vector<double> bounds;    ///< bucket upper bounds, ascending
  std::vector<uint64_t> counts;  ///< bounds.size() + 1 buckets (last = overflow)
  uint64_t count = 0;
  double sum = 0;

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  /// Approximate percentile for p in [0, 100]: locates the bucket containing
  /// the rank and interpolates linearly within it (assuming values spread
  /// uniformly across the bucket), so fine tail percentiles — p99.9 for a
  /// serving latency SLO — resolve below the bucket's upper bound instead of
  /// snapping to it. The overflow bucket has no upper edge and degrades to
  /// the last finite bound.
  double Percentile(double p) const;
};

/// \brief Fixed-bucket histogram with per-thread sharded bucket counts.
///
/// Bucket i counts values in [bounds[i-1], bounds[i]): the lower edge is
/// inclusive, so a value equal to bounds[i] lands in bucket i + 1 (bucket 0
/// takes everything below bounds[0]). Values at or above the last bound
/// land in an overflow bucket. Record is lock-free: one binary search plus
/// three relaxed atomic adds on the caller's shard.
class Histogram {
 public:
  void Record(double v);

  HistogramSnapshot Snapshot() const;
  uint64_t Count() const;

  const std::string& name() const { return name_; }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class MetricsRegistry;
  Histogram(std::string name, std::span<const double> bounds);

  struct alignas(64) Shard {
    explicit Shard(size_t num_buckets) : buckets(num_buckets) {}
    std::vector<std::atomic<uint64_t>> buckets;
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  std::string name_;
  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Exponential microsecond latency bounds: 1us .. 10s.
std::span<const double> LatencyBoundsUs();

/// Power-of-4 size bounds for frontier / fan-out / batch sizes: 1 .. ~1M.
std::span<const double> SizeBounds();

/// \brief Consistent-enough copy of a whole registry for report writing.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
};

/// \brief Named metric registry. Get* creates on first use and returns a
/// stable handle; lookups take a mutex (do them at setup time, not per
/// increment), increments through the handles are lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` is used on first creation only (defaults to LatencyBoundsUs).
  Histogram* GetHistogram(const std::string& name,
                          std::span<const double> bounds = {});

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Counter>> counters_;
  std::unordered_map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::unordered_map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Process-wide default registry (null = observability detached).
/// SetDefault publishes the registry, then bumps the handle-cache generation.
void SetDefault(MetricsRegistry* registry);
MetricsRegistry* Default();

namespace internal {
/// Bumped by every SetDefault. Starts at 1 so a fresh per-thread cache
/// (generation 0) always resolves.
inline std::atomic<uint64_t> default_generation{1};
}  // namespace internal

/// Calling thread's handle struct for the default registry. `Handles` is an
/// aggregate of metric handles with `static Handles Resolve(MetricsRegistry*)`
/// that returns all-null handles for a null registry. The struct is resolved
/// again only after a SetDefault since this thread's last call.
template <typename Handles>
const Handles& DefaultHandles() {
  struct Cached {
    uint64_t generation = 0;
    Handles handles{};
  };
  thread_local Cached cached;
  // Acquire pairs with SetDefault's release bump: a thread that sees the new
  // generation also sees the registry published before it.
  const uint64_t generation =
      internal::default_generation.load(std::memory_order_acquire);
  if (cached.generation != generation) {
    cached.handles = Handles::Resolve(Default());
    cached.generation = generation;
  }
  return cached.handles;
}

/// Handle from the default registry, or null when detached.
Counter* DefaultCounter(const std::string& name);
Gauge* DefaultGauge(const std::string& name);
Histogram* DefaultHistogram(const std::string& name,
                            std::span<const double> bounds = {});

}  // namespace obs
}  // namespace aligraph

#endif  // ALIGRAPH_OBS_METRICS_H_
