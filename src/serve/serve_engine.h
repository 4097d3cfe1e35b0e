/// \file serve_engine.h
/// \brief Online serving front-end over the block execution path: a stream
/// of k-hop embedding requests with admission control, per-request modeled
/// deadlines, and a tail-latency report suitable for CI gating.
///
/// AliGraph's operators and samplers were built for offline training
/// batches; this subsystem turns the same machinery — SampleBlock ->
/// GatherBlockFeatures -> algo::SageStack::Embed, the stack training and
/// Infer run — into a request server.
/// Each request carries a batch of Zipf-hot seed vertices (LoadGenerator)
/// and is the unit of work: one thread runs its sample, gather and forward
/// end to end, as each core serves its own request bucket in the paper.
/// The calling thread and pipeline_depth workers, a pool that lives as long
/// as the engine, claim requests from one shared id counter. Every offered request gets a parentless
/// "serve/request" root span, so the Chrome-trace export is the tail-
/// latency debugging tool.
///
/// TWO CLOCKS. The engine keeps a modeled clock and a measured one:
///
///   - The MODELED timeline is a discrete-event simulation of a small
///     serving fleet (config.lanes service lanes, one queue). It runs after
///     the requests are served, as one sequential pass over results() in id
///     order. Admission, queueing, deadlines and the reported latency
///     percentiles all live on this clock, so they are a pure function of
///     (graph, config, load seed) — byte-identical across machines, thread
///     schedules and sanitizers. These are the numbers bench_serve gates
///     against bench/baseline.json. Service cost is charged per request
///     from an explicit cost model (base + per-edge + per-row), mirroring
///     how the cluster's CommModel charges modeled communication. The sim
///     writes one record per request, its RequestResult; the latency
///     budget (BudgetFor), the windowed timeline (Timeline) and the
///     flight-recorder offers are derived from results() after the run,
///     and nothing is copied into the metrics registry.
///   - The MEASURED wall clock times each request's sample/gather/forward
///     work into the "serve.wall_latency_us" histogram and the trace. It is
///     reported for eyeballing, never gated.
///
/// CONTROL LOOP, per offered request in id order (modeled clock, after
/// serving):
///   1. completions with finish <= arrival retire; in-flight = live count.
///   2. admission: in-flight >= max_in_flight -> SHED (LatencyReport::shed,
///      Result::kResourceExhausted semantics — local backpressure, the
///      client may retry). It was served, as every request is, but the
///      model charges nothing for it and its result keeps no edges, rows
///      or fingerprint.
///   3. service = cost model over the sampled block's edges + rows (the
///      engine must know the request's shape to price it).
///   4. deadline: queue wait + service past deadline_us -> ABANDONED
///      (LatencyReport::deadline_missed) without occupying a lane — a reply
///      the client gave up on is pure waste — and its fingerprint is
///      dropped.
///   5. else the earliest-free lane is charged and the request completes
///      at start + service; its latency (finish - arrival) feeds the
///      report.
///
/// BIT-IDENTITY. Every request's draws come from a private sampler seeded
/// by LoadGenerator::RequestSeed(id), and features are gathered with no
/// cross-request row cache, so a request's embedding is a pure function of
/// (graph, features, weights, id) — ExecuteOffline(id) replays it on the
/// calling thread and must produce the same fingerprint, whichever thread
/// served it. Tests hold the serving path to that contract.

#ifndef ALIGRAPH_SERVE_SERVE_ENGINE_H_
#define ALIGRAPH_SERVE_SERVE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algo/gnn.h"
#include "common/threadpool.h"
#include "graph/graph.h"
#include "nn/matrix.h"
#include "obs/attrib.h"
#include "obs/metrics.h"
#include "serve/load_generator.h"

namespace aligraph {

namespace serve {

/// \brief Serving knobs: model shape, admission bound, deadline, and the
/// modeled service-cost model.
struct ServeConfig {
  /// Per-hop fan-outs of the k-hop query (exactly two hops: the served
  /// model is the repo's two-layer GraphSAGE stack).
  uint32_t fanout1 = 10;
  uint32_t fanout2 = 5;
  size_t dim = 32;  ///< embedding dimension of the served model

  /// Admission bound: offered requests beyond this many in flight are shed.
  size_t max_in_flight = 8;
  /// Modeled service lanes (the simulated fleet's parallelism).
  size_t lanes = 2;
  /// Per-request modeled deadline over queue wait + service, microseconds.
  /// Plays the role RetryPolicy::deadline_us plays for cluster reads: a
  /// modeled budget after which the request is abandoned, never slept on.
  double deadline_us = 50000.0;

  /// Modeled service cost: base_service_us + per_edge_us * sampled edges
  /// + per_row_us * unique feature rows.
  double base_service_us = 50.0;
  double per_edge_us = 0.4;
  double per_row_us = 0.6;

  /// Worker threads that serve requests next to the caller in Run (0 serves
  /// every request inline on the calling thread).
  size_t pipeline_depth = 2;
  /// Seed for the served model's weight initialization.
  uint64_t seed = 29;

  /// Width of one timeline window on the MODELED clock (see
  /// ServeEngine::Timeline); must be positive.
  double timeline_interval_us = 10000.0;
};

/// Most recent windows a ServeTimeline keeps.
inline constexpr size_t kTimelineWindows = 1024;

/// \brief What happened to one offered request.
enum class RequestOutcome : uint8_t {
  kCompleted = 0,  ///< served within deadline; fingerprint is valid
  kShed,           ///< rejected at admission (in-flight bound)
  kDeadlineMissed, ///< admitted but abandoned: could not finish in time
};

/// \brief Per-request record, index == request id.
struct RequestResult {
  RequestOutcome outcome = RequestOutcome::kShed;
  size_t user = 0;            ///< closed loop: issuing client
  double arrival_us = 0;      ///< modeled
  double start_us = 0;        ///< modeled service start (completed only)
  double finish_us = 0;       ///< modeled completion (completed only)
  double latency_us = 0;      ///< modeled finish - arrival (completed only)
  double queue_wait_us = 0;   ///< modeled start - arrival (completed only)
  uint64_t fingerprint = 0;   ///< hash of the embedding bytes (completed only)
  /// Trace id of the request's "serve/request" root span (0 when tracing
  /// was detached); the flight recorder rematches trace trees by it.
  uint64_t trace_id = 0;
  size_t sampled_edges = 0;   ///< edges of the sampled block (not shed)
  size_t block_rows = 0;      ///< unique rows of the sampled block (not shed)
};

/// The latency budget of request `id` (see obs::RequestBudget), derived
/// from its result with the same charge expressions the sim priced it by,
/// so the components are bit-equal to the charges: a completed request's
/// queue wait, per-edge sample, per-row gather and fixed compute cost
/// against its latency; an abandoned one's deadline, charged to
/// kAbandoned; a shed one's zero total (it spent no modeled time, but
/// keeps its outcome so a uniform sample shows sheds in proportion).
obs::RequestBudget BudgetFor(uint64_t id, const RequestResult& result,
                             const ServeConfig& config);

/// \brief The serving run's headline numbers. All latency fields are on the
/// MODELED clock — deterministic, hence gateable.
struct LatencyReport {
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t deadline_missed = 0;

  double p50_us = 0;
  double p95_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double max_us = 0;

  /// Completed requests per modeled second of stream duration.
  double goodput_rps = 0;
  double shed_rate = 0;           ///< shed / offered
  double deadline_miss_rate = 0;  ///< deadline_missed / offered
  /// Modeled stream duration: last completion (or arrival) minus first
  /// arrival, microseconds.
  double duration_us = 0;
  /// High-water mark of concurrently admitted requests — the admission
  /// test asserts this never exceeds max_in_flight.
  size_t max_in_flight_observed = 0;
  /// Attribution coverage: sum of per-request budget components divided by
  /// the total modeled latency, over every request with nonzero latency.
  /// Deterministic, gated >= 0.95 in bench/baseline.json — a new modeled
  /// latency source that forgets to declare a budget component fails the
  /// gate instead of silently rotting the breakdown (DESIGN.md §16).
  double attrib_coverage = 1.0;

  std::string ToString() const;
};

/// \brief One window of a ServeTimeline: the modeled events that fell in
/// [start, start + interval).
struct TimelineWindow {
  uint64_t offered = 0;  ///< arrivals
  uint64_t shed = 0;     ///< rejections, at arrival (shedding is instant)
  uint64_t missed = 0;   ///< deadline misses, when the client gave up
  /// Latencies of the completions that finished in this window, bucketed
  /// by obs::LatencyBoundsUs; its count is the window's completed count.
  obs::HistogramSnapshot latency;

  uint64_t completed() const { return latency.count; }
};

/// \brief A serving run on a grid of fixed modeled-clock windows: the
/// contiguous run of windows from the first event to the last (a quiet
/// window in between is a zero data point, not a gap), capped at the most
/// recent kTimelineWindows.
struct ServeTimeline {
  double interval_us = 0;
  int64_t first_index = 0;  ///< window number floor(t / interval) of [0]
  std::vector<TimelineWindow> windows;

  double start_us(size_t i) const {
    return static_cast<double>(first_index + static_cast<int64_t>(i)) *
           interval_us;
  }
  /// Completions per modeled second in window i.
  double goodput_rps(size_t i) const {
    return static_cast<double>(windows[i].completed()) / (interval_us * 1e-6);
  }
};

/// \brief Serves embedding requests over one graph + feature matrix with a
/// freshly initialized (deterministic) algo::SageStack. The graph and
/// features must outlive the engine.
class ServeEngine {
 public:
  ServeEngine(const AttributedGraph& graph, const nn::Matrix& features,
              const ServeConfig& config);

  /// Serves the generator's full request stream, then runs the modeled sim
  /// over it. Blocks until every offered request is accounted for
  /// (completed, shed, or deadline-missed). Callable repeatedly; each call
  /// starts a fresh modeled timeline and overwrites results().
  LatencyReport Run(const LoadGenerator& gen);

  /// Per-request outcomes of the last Run, indexed by request id.
  const std::vector<RequestResult>& results() const { return results_; }

  /// The last Run's timeline, built from results() on every call: each
  /// request is offered at arrival and then completed at finish, shed at
  /// arrival, or missed at arrival + deadline_us. Empty before the first
  /// Run.
  ServeTimeline Timeline() const;

  /// Replays request `id` on the calling thread (same roots, same
  /// per-request seed, no admission) and returns the embedding fingerprint.
  /// For any request Run() completed, this must equal
  /// results()[id].fingerprint bit for bit.
  uint64_t ExecuteOffline(const LoadGenerator& gen, uint64_t request_id) const;

  const ServeConfig& config() const { return config_; }

 private:
  /// Serves request `id` end to end on the calling thread: sample, gather
  /// and the stack's Embed, each under its "serve/*" span. Fills the
  /// result's fingerprint, sampled_edges and block_rows. Const, so Run's
  /// threads may call it at once.
  RequestResult Serve(const LoadGenerator& gen, uint64_t id) const;

  const AttributedGraph& graph_;
  const nn::Matrix& features_;
  ServeConfig config_;
  // The served model: the GraphSAGE stack training and Infer run, with
  // weights drawn from Rng(config.seed).
  algo::SageStack stack_;
  std::vector<RequestResult> results_;

  // The measured clock's records, from the default registry at
  // construction (null when detached): "serve.wall_latency_us" per served
  // request, and each stage's wall time in "pipeline.stage_busy_us.*",
  // summed over threads. The modeled counts and latencies live in
  // LatencyReport and results().
  obs::Histogram* wall_latency_ = nullptr;
  obs::Counter* busy_sample_ = nullptr;
  obs::Counter* busy_gather_ = nullptr;
  obs::Counter* busy_compute_ = nullptr;
  // The pipeline_depth serving threads (null at depth 0). Declared last, so
  // they are joined before the members they read are destroyed.
  std::unique_ptr<ThreadPool> workers_;
};

}  // namespace serve
}  // namespace aligraph

#endif  // ALIGRAPH_SERVE_SERVE_ENGINE_H_
