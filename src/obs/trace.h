/// \file trace.h
/// \brief Scoped tracing: RAII spans recorded into per-thread ring buffers,
/// aggregated into per-stage wall-time breakdowns AND causally linked into
/// per-request trace trees.
///
/// A ScopedSpan times one stage of a pipeline ("sample/hop0",
/// "block/gather", ...). Spans nest: a thread-local depth counter tracks
/// the nesting level so aggregation can tell stages from their sub-stages.
/// Completed spans are appended to a per-thread ring buffer owned by the
/// active Tracer — recording is wait-free for the owning thread (one index
/// publish with release ordering, no locks) and costs two clock reads plus
/// one ring write. When no tracer is attached a span is a single relaxed
/// atomic load and nothing else, which is what lets instrumentation stay on
/// in production code paths.
///
/// Causal model (Dapper-style): every span carries a TraceContext — a
/// process-unique trace id plus its own span id — and records the span id
/// of its parent. A span opened while no trace is active MINTS a new trace
/// (trace_id == its span id, parent 0), so each top-level request span is
/// automatically the single root of its trace. A span opened inside another
/// span inherits the trace and parents under it. Cross-thread handoffs
/// (ThreadPool tasks) capture the submitter's CurrentTraceContext() and
/// adopt it on the worker thread with a ScopedTraceContext, so worker-side
/// spans stay children of the submitting span instead of starting
/// disconnected roots.
///
/// Aggregate() folds every thread's ring into a name -> {count, total,
/// min, max} map; Events() returns the raw causally-linked records for
/// timeline export and critical-path analysis (see timeline.h). Both are
/// meant to be called at quiescent points (end of a bench phase / test);
/// records landing concurrently may be partially missed but never corrupt
/// memory. If a thread records more spans than the ring holds, the oldest
/// records are overwritten and counted in dropped_records().

#ifndef ALIGRAPH_OBS_TRACE_H_
#define ALIGRAPH_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace aligraph {
namespace obs {

/// \brief Aggregated statistics of one span name.
struct SpanStats {
  uint64_t count = 0;
  double total_us = 0;
  double min_us = 0;
  double max_us = 0;
  uint32_t depth = 0;  ///< nesting level observed for this name (1 = root)

  double mean_us() const {
    return count == 0 ? 0.0 : total_us / static_cast<double>(count);
  }
};

/// \brief The causal position of the calling thread: which trace it is in
/// and which span id new child spans should parent under. trace_id == 0
/// means "no active trace" — the next span mints a fresh one.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

/// Thread-local context of the calling thread.
TraceContext CurrentTraceContext();

/// Process-unique span/trace id, never 0. Threads draw from block-allocated
/// ranges so the hot path is one thread-local increment.
uint64_t NextSpanId();

/// \brief RAII adoption of a captured TraceContext on another thread: spans
/// opened while this is alive parent under ctx.span_id in ctx.trace_id.
/// Executors wrap handed-off closures in one of these so parentage survives
/// the thread hop; restores the previous context on destruction.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext ctx);
  ~ScopedTraceContext();

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext prev_;
};

/// \brief One completed, causally-linked span record (see Tracer::Events).
struct SpanEvent {
  std::string name;
  uint64_t trace_id = 0;        ///< 0 = recorded outside any trace
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  ///< 0 = root of its trace
  uint32_t depth = 0;
  uint32_t thread = 0;    ///< recording thread's ring index (stable)
  int64_t start_ns = 0;   ///< relative to the tracer's epoch
  int64_t duration_ns = 0;

  int64_t end_ns() const { return start_ns + duration_ns; }
};

/// \brief Owner of the per-thread span rings. Attach with SetDefaultTracer;
/// ScopedSpan picks the attached tracer up automatically.
class Tracer {
 public:
  /// \param ring_capacity completed spans retained per thread (power of two
  ///        not required).
  explicit Tracer(size_t ring_capacity = 1 << 15);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Per-name wall-time breakdown over all threads' retained records.
  std::map<std::string, SpanStats> Aggregate() const;

  /// Every retained record with its causal links, across all threads,
  /// ordered by (thread, recording order). Call at quiescent points.
  std::vector<SpanEvent> Events() const;

  /// Records that fell out of a ring before aggregation (0 in well-sized
  /// runs; reported so truncation is never silent).
  uint64_t dropped_records() const;

  /// Appends a completed span (called by ScopedSpan; public for tests).
  /// `name` must outlive the tracer — pass string literals. `start` is the
  /// span's steady-clock start; Events() rebases it onto the tracer epoch.
  void Record(const char* name, uint32_t depth, TraceContext ctx,
              uint64_t parent_span_id,
              std::chrono::steady_clock::time_point start,
              int64_t duration_ns);

 private:
  struct SpanRecord {
    const char* name = nullptr;
    uint32_t depth = 0;
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span_id = 0;
    int64_t start_ns = 0;  ///< already rebased onto the tracer epoch
    int64_t duration_ns = 0;
  };

  struct ThreadBuffer {
    explicit ThreadBuffer(size_t capacity) : records(capacity) {}
    std::vector<SpanRecord> records;
    /// Monotonic count of records ever written; slot = head % capacity.
    std::atomic<uint64_t> head{0};
  };

  ThreadBuffer* BufferForThisThread();

  const size_t ring_capacity_;
  const uint64_t generation_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Process-wide default tracer (null = tracing detached).
void SetDefaultTracer(Tracer* tracer);
Tracer* DefaultTracer();

/// Current span nesting depth of the calling thread (0 outside any span).
uint32_t CurrentSpanDepth();

/// \brief RAII span: starts timing on construction, records into the
/// default tracer on destruction. No-op (one atomic load) when detached.
///
/// The optional `latency_us` histogram receives the same duration in
/// microseconds, reusing the span's clock reads — cheaper than timing the
/// scope twice when a stage wants both a span and a latency distribution.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, Histogram* latency_us = nullptr)
      : tracer_(DefaultTracer()), latency_us_(latency_us) {
    if (tracer_ == nullptr && latency_us_ == nullptr) return;
    name_ = name;
    if (tracer_ != nullptr) {
      depth_ = EnterSpan();
      prev_ = PushContext();
    }
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedSpan() {
    if (tracer_ == nullptr && latency_us_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    const int64_t duration_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count();
    if (latency_us_ != nullptr) {
      latency_us_->Record(static_cast<double>(duration_ns) * 1e-3);
    }
    if (tracer_ == nullptr) return;
    const TraceContext self = CurrentTraceContext();
    PopContext(prev_);
    LeaveSpan();
    tracer_->Record(name_, depth_, self, prev_.span_id, start_, duration_ns);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static uint32_t EnterSpan();  ///< ++depth, returns the new depth
  static void LeaveSpan();      ///< --depth

  /// Mints this span's ids (inheriting or starting a trace), installs them
  /// as the thread context, and returns the PREVIOUS context.
  static TraceContext PushContext();
  static void PopContext(TraceContext prev);

  Tracer* tracer_;
  Histogram* latency_us_;
  const char* name_ = nullptr;
  uint32_t depth_ = 0;
  TraceContext prev_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace aligraph

#endif  // ALIGRAPH_OBS_TRACE_H_
