#include "serve/serve_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "block/feature_source.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace serve {

namespace {

/// FNV-1a over the embedding's bytes. Floats are hashed by bit pattern, so
/// two embeddings fingerprint equal iff they are bit-identical — the exact
/// contract the online-vs-offline tests assert.
uint64_t FingerprintMatrix(const nn::Matrix& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (const float f : m.Row(i)) {
      uint32_t bits;
      std::memcpy(&bits, &f, sizeof(bits));
      for (int shift = 0; shift < 32; shift += 8) {
        h ^= (bits >> shift) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

/// The cost model's charge terms for a request of `edges` sampled edges
/// and `rows` block rows. service_us() keeps the original left-to-right
/// association (base + per_edge*E) + per_row*R, so the modeled clock — and
/// every gated serve.* baseline number downstream of it — is bit-identical
/// to the un-decomposed expression.
struct Charges {
  double sample_us;
  double gather_us;
  double compute_us;

  double service_us() const { return compute_us + sample_us + gather_us; }
};

Charges ChargesFor(const ServeConfig& config, size_t edges, size_t rows) {
  return {config.per_edge_us * static_cast<double>(edges),
          config.per_row_us * static_cast<double>(rows),
          config.base_service_us};
}

size_t BlockEdges(const block::SampledBlock& blk) {
  size_t edges = 0;
  for (const block::BlockHop& hop : blk.hops()) edges += hop.num_edges();
  return edges;
}

/// Runs one stage of a request under its span and charges its wall time to
/// the stage's busy counter (summed over the threads that serve).
template <typename Body>
void Stage(const char* span_name, obs::Counter* busy, const Body& body) {
  obs::ScopedSpan span(span_name);
  const Timer timer;
  body();
  if (busy != nullptr) {
    busy->Add(static_cast<uint64_t>(timer.ElapsedMicros()));
  }
}

}  // namespace

std::string LatencyReport::ToString() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "offered=%llu completed=%llu shed=%llu missed=%llu | "
      "p50=%.0fus p95=%.0fus p99=%.0fus p99.9=%.0fus max=%.0fus | "
      "goodput=%.1frps shed=%.1f%% miss=%.1f%% peak_inflight=%zu "
      "attrib_cov=%.4f",
      static_cast<unsigned long long>(offered),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(deadline_missed), p50_us, p95_us,
      p99_us, p999_us, max_us, goodput_rps, 100.0 * shed_rate,
      100.0 * deadline_miss_rate, max_in_flight_observed, attrib_coverage);
  return buf;
}

obs::RequestBudget BudgetFor(uint64_t id, const RequestResult& result,
                             const ServeConfig& config) {
  obs::RequestBudget budget;
  budget.request_id = id;
  budget.trace_id = result.trace_id;
  switch (result.outcome) {
    case RequestOutcome::kShed:
      budget.outcome = obs::RequestBudget::Outcome::kShed;
      break;
    case RequestOutcome::kDeadlineMissed:
      // The client waited out its whole budget before giving up: the wait
      // bought nothing decomposable.
      budget.outcome = obs::RequestBudget::Outcome::kAbandoned;
      budget.total_us = config.deadline_us;
      budget.at(obs::BudgetComponent::kAbandoned) = config.deadline_us;
      break;
    case RequestOutcome::kCompleted: {
      // total_us is the independently derived finish - arrival, so
      // coverage stays an honest accounting check, not a tautology.
      const Charges c =
          ChargesFor(config, result.sampled_edges, result.block_rows);
      budget.outcome = obs::RequestBudget::Outcome::kCompleted;
      budget.total_us = result.latency_us;
      budget.at(obs::BudgetComponent::kQueueWait) = result.queue_wait_us;
      budget.at(obs::BudgetComponent::kSample) = c.sample_us;
      budget.at(obs::BudgetComponent::kGather) = c.gather_us;
      budget.at(obs::BudgetComponent::kCompute) = c.compute_us;
      break;
    }
  }
  return budget;
}

ServeEngine::ServeEngine(const AttributedGraph& graph,
                         const nn::Matrix& features, const ServeConfig& config)
    : graph_(graph),
      features_(features),
      config_(config),
      stack_([&] {
        Rng rng(config.seed);
        return algo::SageStack(features.cols(), config.dim,
                               /*maxpool=*/false, rng);
      }()),
      wall_latency_(obs::DefaultHistogram("serve.wall_latency_us")),
      busy_sample_(obs::DefaultCounter("pipeline.stage_busy_us.sample")),
      busy_gather_(obs::DefaultCounter("pipeline.stage_busy_us.gather")),
      busy_compute_(obs::DefaultCounter("pipeline.stage_busy_us.compute")) {
  if (config_.pipeline_depth > 0) {
    workers_ = std::make_unique<ThreadPool>(config_.pipeline_depth);
  }
  ALIGRAPH_CHECK_GT(config_.max_in_flight, 0u);
  ALIGRAPH_CHECK_GT(config_.lanes, 0u);
  ALIGRAPH_CHECK_GT(config_.deadline_us, 0.0);
  ALIGRAPH_CHECK_GT(config_.timeline_interval_us, 0.0);
  ALIGRAPH_CHECK_EQ(features_.rows(), graph_.num_vertices());
}

LatencyReport ServeEngine::Run(const LoadGenerator& gen) {
  const LoadConfig& load = gen.config();
  const uint64_t n = load.num_requests;
  const bool closed = load.mode == LoadConfig::Mode::kClosed;
  results_.assign(n, RequestResult{});

  // --- Serve: the caller and pipeline_depth workers claim ids from one
  // counter and run each request end to end; a request writes only its own
  // result.
  std::atomic<uint64_t> next{0};
  const auto serve = [&] {
    // Every request span is a parentless root, whichever thread runs it and
    // whatever span the caller has open.
    obs::ScopedTraceContext detached({});
    for (uint64_t id; (id = next.fetch_add(1)) < n;) {
      obs::ScopedSpan span("serve/request", wall_latency_);
      const uint64_t trace_id = obs::CurrentTraceContext().trace_id;
      results_[id] = Serve(gen, id);
      results_[id].trace_id = trace_id;
    }
  };
  for (size_t w = 0; w < config_.pipeline_depth; ++w) workers_->Submit(serve);
  serve();
  if (workers_ != nullptr) workers_->Wait();

  // --- Model: the discrete-event sim, a sequential pass in id order. Each
  // request's shape is a pure function of its id, so no thread schedule can
  // reach the modeled clock.
  std::vector<double> lane_free(config_.lanes, 0.0);
  // Completion times of admitted, unfinished requests.
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      inflight;
  // Closed loop: (next issue time, user), earliest first. Users start
  // staggered by one think time so the stream does not begin with a
  // synchronized burst.
  using UserEvent = std::pair<double, size_t>;
  std::priority_queue<UserEvent, std::vector<UserEvent>,
                      std::greater<UserEvent>>
      users;
  if (closed) {
    for (size_t u = 0; u < load.num_users; ++u) {
      users.push({static_cast<double>(u) * load.think_time_us /
                      static_cast<double>(load.num_users),
                  u});
    }
  }
  Summary latencies;  // modeled, completed requests only
  double first_arrival = -1.0;
  double last_event = 0.0;
  size_t peak_inflight = 0;
  uint64_t shed_count = 0;
  uint64_t missed_count = 0;
  for (uint64_t id = 0; id < n; ++id) {
    RequestResult& r = results_[id];
    double arrival;
    size_t user = 0;
    if (closed) {
      const UserEvent ev = users.top();
      users.pop();
      arrival = ev.first;
      user = ev.second;
    } else {
      arrival = gen.OpenArrivalUs(id);
    }
    r.user = user;
    r.arrival_us = arrival;
    if (first_arrival < 0.0) first_arrival = arrival;
    last_event = std::max(last_event, arrival);

    // 1. Retire everything that finished before this arrival.
    while (!inflight.empty() && inflight.top() <= arrival) inflight.pop();

    // 2. Admission control: bounded in-flight, excess is shed and keeps
    // nothing of what was served.
    if (inflight.size() >= config_.max_in_flight) {
      r.outcome = RequestOutcome::kShed;
      r.sampled_edges = 0;
      r.block_rows = 0;
      r.fingerprint = 0;
      ++shed_count;
      if (closed) users.push({arrival + load.think_time_us, user});
      continue;
    }

    // 3. Price the request from its sampled shape.
    const double service =
        ChargesFor(config_, r.sampled_edges, r.block_rows).service_us();

    // 4. Deadline: a request that cannot finish inside its budget is
    // abandoned before it occupies a lane, and its embedding is discarded.
    auto lane = std::min_element(lane_free.begin(), lane_free.end());
    const double start = std::max(arrival, *lane);
    const double finish = start + service;
    if (finish - arrival > config_.deadline_us) {
      r.outcome = RequestOutcome::kDeadlineMissed;
      r.fingerprint = 0;
      ++missed_count;
      if (closed) {
        users.push({arrival + config_.deadline_us + load.think_time_us, user});
      }
      continue;
    }

    // 5. Admit: charge the lane, record the modeled latency.
    *lane = finish;
    inflight.push(finish);
    peak_inflight = std::max(peak_inflight, inflight.size());
    r.outcome = RequestOutcome::kCompleted;
    r.start_us = start;
    r.finish_us = finish;
    r.latency_us = finish - arrival;
    r.queue_wait_us = start - arrival;
    latencies.Add(r.latency_us);
    last_event = std::max(last_event, finish);
    if (closed) users.push({finish + load.think_time_us, user});
  }

  LatencyReport report;
  report.offered = n;
  report.shed = shed_count;
  report.deadline_missed = missed_count;
  report.completed = n - shed_count - missed_count;
  report.max_in_flight_observed = peak_inflight;
  if (latencies.count() > 0) {
    report.p50_us = latencies.Percentile(50.0);
    report.p95_us = latencies.Percentile(95.0);
    report.p99_us = latencies.Percentile(99.0);
    report.p999_us = latencies.Percentile(99.9);
    report.max_us = latencies.max();
  }
  if (first_arrival < 0.0) first_arrival = 0.0;
  report.duration_us = last_event - first_arrival;
  if (report.duration_us > 0.0) {
    report.goodput_rps =
        static_cast<double>(report.completed) / (report.duration_us * 1e-6);
  }
  if (n > 0) {
    report.shed_rate =
        static_cast<double>(shed_count) / static_cast<double>(n);
    report.deadline_miss_rate =
        static_cast<double>(missed_count) / static_cast<double>(n);
  }
  std::vector<obs::RequestBudget> budgets;
  budgets.reserve(n);
  for (uint64_t id = 0; id < n; ++id) {
    budgets.push_back(BudgetFor(id, results_[id], config_));
  }
  report.attrib_coverage = obs::BuildAttributionReport(budgets).coverage;
  return report;
}

ServeTimeline ServeEngine::Timeline() const {
  ServeTimeline tl;
  tl.interval_us = config_.timeline_interval_us;
  if (results_.empty()) return tl;
  const auto window = [&](double t_us) {
    return static_cast<int64_t>(std::floor(t_us / tl.interval_us));
  };
  // Every request arrives once, then has exactly one outcome event.
  const auto outcome_us = [&](const RequestResult& r) {
    switch (r.outcome) {
      case RequestOutcome::kCompleted:
        return r.finish_us;
      case RequestOutcome::kDeadlineMissed:
        return r.arrival_us + config_.deadline_us;
      case RequestOutcome::kShed:
        break;
    }
    return r.arrival_us;
  };
  int64_t first = std::numeric_limits<int64_t>::max();
  int64_t last = std::numeric_limits<int64_t>::min();
  for (const RequestResult& r : results_) {
    for (const int64_t w : {window(r.arrival_us), window(outcome_us(r))}) {
      first = std::min(first, w);
      last = std::max(last, w);
    }
  }
  first = std::max(first, last - static_cast<int64_t>(kTimelineWindows) + 1);
  tl.first_index = first;

  const std::span<const double> bounds = obs::LatencyBoundsUs();
  TimelineWindow empty;
  empty.latency.bounds.assign(bounds.begin(), bounds.end());
  empty.latency.counts.assign(bounds.size() + 1, 0);
  tl.windows.assign(static_cast<size_t>(last - first + 1), empty);
  // The window of time t, or null when t predates the retained range.
  const auto at = [&](double t_us) -> TimelineWindow* {
    const int64_t w = window(t_us);
    return w < first ? nullptr : &tl.windows[static_cast<size_t>(w - first)];
  };
  for (const RequestResult& r : results_) {
    if (TimelineWindow* w = at(r.arrival_us)) ++w->offered;
    TimelineWindow* w = at(outcome_us(r));
    if (w == nullptr) continue;
    switch (r.outcome) {
      case RequestOutcome::kCompleted: {
        // Bucketed as obs::Histogram::Record buckets, so the window's
        // percentiles are those of a latency histogram over it.
        const size_t b = static_cast<size_t>(
            std::upper_bound(bounds.begin(), bounds.end(), r.latency_us) -
            bounds.begin());
        ++w->latency.counts[b];
        ++w->latency.count;
        w->latency.sum += r.latency_us;
        break;
      }
      case RequestOutcome::kShed:
        ++w->shed;
        break;
      case RequestOutcome::kDeadlineMissed:
        ++w->missed;
        break;
    }
  }
  return tl;
}

uint64_t ServeEngine::ExecuteOffline(const LoadGenerator& gen,
                                     uint64_t request_id) const {
  return Serve(gen, request_id).fingerprint;
}

RequestResult ServeEngine::Serve(const LoadGenerator& gen, uint64_t id) const {
  const std::vector<uint32_t> fans{config_.fanout1, config_.fanout2};
  LocalNeighborSource source(graph_);
  block::MatrixFeatureSource feature_source(features_);
  block::SampledBlock blk;
  nn::Matrix x;
  RequestResult r;
  Stage("serve/sample", busy_sample_, [&] {
    NeighborhoodSampler hood(NeighborStrategy::kUniform, gen.RequestSeed(id));
    blk = hood.SampleBlock(source, gen.RootsFor(id),
                           NeighborhoodSampler::kAllEdgeTypes, fans);
  });
  // No cross-request row cache: each embedding stays a pure function of its
  // own request id (the bit-identical replay contract).
  Stage("serve/gather", busy_gather_, [&] {
    x = block::GatherBlockFeatures(blk, feature_source, /*row_cache=*/nullptr);
  });
  Stage("serve/compute", busy_compute_,
        [&] { r.fingerprint = FingerprintMatrix(stack_.Embed(blk, x)); });
  r.sampled_edges = BlockEdges(blk);
  r.block_rows = blk.num_vertices();
  return r;
}

}  // namespace serve
}  // namespace aligraph
