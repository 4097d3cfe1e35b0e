// Tests for the online serving layer: LoadGenerator determinism and skew,
// admission control (in-flight never exceeds the bound, shed requests are
// counted and keep no embedding), modeled deadlines (abandoned requests
// never occupy a lane), bit-identity of every accepted request against the
// sequential offline replay, determinism of the whole modeled timeline
// across runs and worker counts, closed-loop population bounds, and the
// per-request "serve/request" trace roots.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "algo/embedding_algorithm.h"
#include "gen/powerlaw.h"
#include "graph/graph.h"
#include "nn/matrix.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "serve/load_generator.h"
#include "serve/serve_engine.h"

namespace aligraph {
namespace serve {
namespace {

AttributedGraph TestGraph() {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 2000;
  cfg.avg_degree = 8;
  cfg.seed = 11;
  return std::move(gen::ChungLu(cfg)).value();
}

ServeConfig SmallServeConfig() {
  ServeConfig cfg;
  cfg.fanout1 = 4;
  cfg.fanout2 = 3;
  cfg.dim = 8;
  cfg.max_in_flight = 8;
  cfg.lanes = 2;
  cfg.deadline_us = 100000.0;
  cfg.pipeline_depth = 2;
  cfg.seed = 29;
  return cfg;
}

// ---------------------------------------------------------------------------
// LoadGenerator.

TEST(LoadGeneratorTest, RequestsArePureFunctionsOfId) {
  const AttributedGraph graph = TestGraph();
  LoadConfig load;
  load.num_requests = 64;
  load.roots_per_request = 3;
  load.seed = 7;
  const LoadGenerator a(graph, load);
  const LoadGenerator b(graph, load);

  // Same config => same stream, and querying ids in reverse order changes
  // nothing: every request is a pure function of (seed, id).
  for (uint64_t id = load.num_requests; id-- > 0;) {
    EXPECT_EQ(a.RootsFor(id), b.RootsFor(id)) << "id " << id;
    EXPECT_EQ(a.RootsFor(id), a.RootsFor(id)) << "id " << id;
    EXPECT_EQ(a.RequestSeed(id), b.RequestSeed(id)) << "id " << id;
    EXPECT_DOUBLE_EQ(a.OpenArrivalUs(id), b.OpenArrivalUs(id)) << "id " << id;
  }
  // Distinct ids get distinct sampler seeds (the independence that makes
  // shedding one request invisible to every other).
  EXPECT_NE(a.RequestSeed(0), a.RequestSeed(1));

  // A different seed produces a different stream.
  load.seed = 8;
  const LoadGenerator c(graph, load);
  bool any_diff = false;
  for (uint64_t id = 0; id < load.num_requests; ++id) {
    any_diff = any_diff || c.RootsFor(id) != a.RootsFor(id);
  }
  EXPECT_TRUE(any_diff);
}

TEST(LoadGeneratorTest, OpenArrivalsAreMonotoneAtTheConfiguredRate) {
  const AttributedGraph graph = TestGraph();
  LoadConfig load;
  load.num_requests = 2000;
  load.arrival_rate_rps = 5000.0;
  load.seed = 3;
  const LoadGenerator gen(graph, load);

  double prev = 0.0;
  for (uint64_t id = 0; id < load.num_requests; ++id) {
    const double t = gen.OpenArrivalUs(id);
    EXPECT_GT(t, prev) << "id " << id;
    prev = t;
  }
  // Mean gap of a Poisson stream at 5000 rps is 200us; 2000 samples put
  // the empirical mean well within 15%.
  const double mean_gap = prev / static_cast<double>(load.num_requests);
  EXPECT_NEAR(mean_gap, 200.0, 30.0);
}

TEST(LoadGeneratorTest, ZipfSkewConcentratesOnHighDegreeVertices) {
  const AttributedGraph graph = TestGraph();
  LoadConfig load;
  load.num_requests = 1000;
  load.roots_per_request = 4;
  load.zipf_exponent = 1.0;
  load.seed = 5;
  const LoadGenerator gen(graph, load);

  std::map<VertexId, size_t> freq;
  for (uint64_t id = 0; id < load.num_requests; ++id) {
    for (const VertexId v : gen.RootsFor(id)) ++freq[v];
  }
  const size_t hottest = freq[gen.VertexAtRank(0)];
  const size_t mid = freq.count(gen.VertexAtRank(1000))
                         ? freq[gen.VertexAtRank(1000)]
                         : 0;
  // Rank 0 carries ~1/H(2000) ~ 12% of 4000 draws; a mid-rank vertex
  // carries ~0.006%. Any reasonable stream separates them by an order of
  // magnitude.
  EXPECT_GT(hottest, 200u);
  EXPECT_GT(hottest, 10 * (mid + 1));
}

// ---------------------------------------------------------------------------
// Admission control and accounting.

TEST(ServeEngineTest, AdmissionBoundHoldsUnderOverload) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 8);
  ServeConfig cfg = SmallServeConfig();
  cfg.max_in_flight = 4;

  obs::MetricsRegistry registry;
  obs::SetDefault(&registry);
  ServeEngine engine(graph, features, cfg);

  LoadConfig load;
  load.num_requests = 400;
  load.roots_per_request = 4;
  // ~50k rps against ~17k rps of modeled capacity: overload, queues build,
  // admission control must engage.
  load.arrival_rate_rps = 50000.0;
  load.seed = 21;
  const LoadGenerator gen(graph, load);
  const LatencyReport report = engine.Run(gen);
  obs::SetDefault(nullptr);

  // The bound is a hard invariant, not a target.
  EXPECT_LE(report.max_in_flight_observed, cfg.max_in_flight);
  EXPECT_GT(report.shed, 0u) << "overload must shed";
  // Accounting identity: nothing silently dropped.
  EXPECT_EQ(report.offered,
            report.completed + report.shed + report.deadline_missed);
  EXPECT_EQ(report.offered, load.num_requests);
  // Every completed request carries its embedding's fingerprint; shed and
  // missed requests keep none.
  for (const RequestResult& r : engine.results()) {
    if (r.outcome == RequestOutcome::kCompleted) {
      EXPECT_NE(r.fingerprint, 0u);
    } else {
      EXPECT_EQ(r.fingerprint, 0u);
    }
    if (r.outcome == RequestOutcome::kShed) {
      EXPECT_EQ(r.latency_us, 0.0);
    }
  }
  // Percentiles are ordered whenever anything completed.
  ASSERT_GT(report.completed, 0u);
  EXPECT_LE(report.p50_us, report.p95_us);
  EXPECT_LE(report.p95_us, report.p99_us);
  EXPECT_LE(report.p99_us, report.p999_us);
  EXPECT_LE(report.p999_us, report.max_us);
}

TEST(ServeEngineTest, DeadlineMissesAreAbandonedNotServed) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 8);
  ServeConfig cfg = SmallServeConfig();
  cfg.max_in_flight = 64;   // admission never binds here
  cfg.deadline_us = 250.0;  // ~2x one service time: queueing causes misses
  ServeEngine engine(graph, features, cfg);

  LoadConfig load;
  load.num_requests = 300;
  load.roots_per_request = 4;
  load.arrival_rate_rps = 30000.0;
  load.seed = 9;
  const LoadGenerator gen(graph, load);
  const LatencyReport report = engine.Run(gen);

  EXPECT_GT(report.deadline_missed, 0u);
  for (const RequestResult& r : engine.results()) {
    if (r.outcome == RequestOutcome::kDeadlineMissed) {
      // Abandoned before service: its embedding is discarded.
      EXPECT_EQ(r.fingerprint, 0u);
    } else if (r.outcome == RequestOutcome::kCompleted) {
      // A served request always made its deadline.
      EXPECT_LE(r.latency_us, cfg.deadline_us);
    }
  }
}

// ---------------------------------------------------------------------------
// Bit-identity and determinism.

TEST(ServeEngineTest, AcceptedRequestsBitIdenticalToOfflineReplay) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 8);
  ServeConfig cfg = SmallServeConfig();
  ServeEngine engine(graph, features, cfg);

  LoadConfig load;
  load.num_requests = 200;
  load.roots_per_request = 4;
  load.arrival_rate_rps = 20000.0;  // mild overload: mixed outcomes
  load.seed = 33;
  const LoadGenerator gen(graph, load);
  const LatencyReport report = engine.Run(gen);
  ASSERT_GT(report.completed, 0u);

  size_t checked = 0;
  for (uint64_t id = 0; id < load.num_requests; ++id) {
    const RequestResult& r = engine.results()[id];
    if (r.outcome != RequestOutcome::kCompleted) continue;
    EXPECT_EQ(r.fingerprint, engine.ExecuteOffline(gen, id)) << "id " << id;
    ++checked;
  }
  EXPECT_EQ(checked, report.completed);
  // Golden replay of request 0: pins the served model's weight draws and
  // its forward's float-op order, not just online == offline.
  EXPECT_EQ(engine.ExecuteOffline(gen, 0), 0x0810c7b0938b6ed1ULL)
      << std::hex << engine.ExecuteOffline(gen, 0);
}

TEST(ServeEngineTest, ModeledTimelineDeterministicAcrossRunsAndDepths) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 8);

  LoadConfig load;
  load.num_requests = 250;
  load.roots_per_request = 4;
  load.arrival_rate_rps = 25000.0;
  load.seed = 41;
  const LoadGenerator gen(graph, load);

  ServeConfig cfg = SmallServeConfig();
  cfg.pipeline_depth = 1;
  ServeEngine first(graph, features, cfg);
  const LatencyReport base = first.Run(gen);
  const std::vector<RequestResult> base_results = first.results();

  // The same engine re-run, and fresh engines serving inline (depth 0) and
  // on more workers, must all reproduce the modeled timeline and the
  // embeddings exactly: the simulation is a sequential pass in id order,
  // so real-thread interleaving cannot leak in.
  std::vector<LatencyReport> reports{first.Run(gen)};
  std::vector<std::vector<RequestResult>> results{first.results()};
  for (const size_t depth : {size_t{0}, size_t{3}}) {
    cfg.pipeline_depth = depth;
    ServeEngine other(graph, features, cfg);
    reports.push_back(other.Run(gen));
    results.push_back(other.results());
  }

  for (const LatencyReport& rep : reports) {
    EXPECT_EQ(rep.completed, base.completed);
    EXPECT_EQ(rep.shed, base.shed);
    EXPECT_EQ(rep.deadline_missed, base.deadline_missed);
    EXPECT_DOUBLE_EQ(rep.p99_us, base.p99_us);
    EXPECT_DOUBLE_EQ(rep.p999_us, base.p999_us);
    EXPECT_DOUBLE_EQ(rep.goodput_rps, base.goodput_rps);
    EXPECT_EQ(rep.max_in_flight_observed, base.max_in_flight_observed);
  }
  for (const std::vector<RequestResult>& run : results) {
    ASSERT_EQ(run.size(), base_results.size());
    for (size_t id = 0; id < base_results.size(); ++id) {
      const RequestResult& b = base_results[id];
      const RequestResult& r = run[id];
      EXPECT_EQ(static_cast<int>(r.outcome), static_cast<int>(b.outcome))
          << "id " << id;
      EXPECT_DOUBLE_EQ(r.latency_us, b.latency_us) << "id " << id;
      EXPECT_EQ(r.fingerprint, b.fingerprint) << "id " << id;
    }
  }
}

// ---------------------------------------------------------------------------
// Closed loop.

TEST(ServeEngineTest, ClosedLoopBoundedByUserPopulation) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 8);
  ServeConfig cfg = SmallServeConfig();
  cfg.max_in_flight = 16;  // larger than the population: never binds
  ServeEngine engine(graph, features, cfg);

  LoadConfig load;
  load.mode = LoadConfig::Mode::kClosed;
  load.num_requests = 150;
  load.roots_per_request = 3;
  load.num_users = 3;
  load.think_time_us = 100.0;
  load.seed = 13;
  const LoadGenerator gen(graph, load);
  const LatencyReport report = engine.Run(gen);

  // A user waits for its own completion before reissuing, so concurrency
  // can never exceed the population.
  EXPECT_LE(report.max_in_flight_observed, load.num_users);
  EXPECT_GT(report.completed, 0u);
  EXPECT_EQ(report.offered,
            report.completed + report.shed + report.deadline_missed);
  // Each user's request sequence is strictly ordered in modeled time.
  std::map<size_t, double> last_arrival;
  for (const RequestResult& r : engine.results()) {
    EXPECT_LT(r.user, load.num_users);
    auto it = last_arrival.find(r.user);
    if (it != last_arrival.end()) {
      EXPECT_GT(r.arrival_us, it->second);
    }
    last_arrival[r.user] = r.arrival_us;
  }
}

// Concurrency: the threads of Run serve requests in any order, and nothing
// of the schedule reaches results().

TEST(ServeEngineTest, ConcurrentRunMatchesInline) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 8);
  LoadConfig load;
  load.num_requests = 2400;
  load.roots_per_request = 4;
  load.arrival_rate_rps = 25000.0;  // overload: all three outcomes occur
  load.seed = 61;
  const LoadGenerator gen(graph, load);

  obs::Tracer tracer;
  obs::SetDefaultTracer(&tracer);
  std::vector<std::vector<RequestResult>> results;
  for (const size_t depth : {size_t{0}, size_t{3}}) {
    ServeConfig cfg = SmallServeConfig();
    cfg.max_in_flight = 6;
    cfg.deadline_us = 250.0;
    cfg.pipeline_depth = depth;
    ServeEngine engine(graph, features, cfg);
    engine.Run(gen);
    results.push_back(engine.results());
  }
  obs::SetDefaultTracer(nullptr);

  const std::vector<RequestResult>& inline_run = results[0];
  const std::vector<RequestResult>& threaded = results[1];
  ASSERT_EQ(threaded.size(), inline_run.size());
  std::map<RequestOutcome, size_t> outcomes;
  for (size_t id = 0; id < inline_run.size(); ++id) {
    const RequestResult& a = inline_run[id];
    const RequestResult& b = threaded[id];
    ++outcomes[a.outcome];
    EXPECT_EQ(b.outcome, a.outcome) << "id " << id;
    EXPECT_EQ(b.user, a.user) << "id " << id;
    EXPECT_EQ(b.arrival_us, a.arrival_us) << "id " << id;
    EXPECT_EQ(b.start_us, a.start_us) << "id " << id;
    EXPECT_EQ(b.finish_us, a.finish_us) << "id " << id;
    EXPECT_EQ(b.latency_us, a.latency_us) << "id " << id;
    EXPECT_EQ(b.queue_wait_us, a.queue_wait_us) << "id " << id;
    EXPECT_EQ(b.fingerprint, a.fingerprint) << "id " << id;
    EXPECT_EQ(b.sampled_edges, a.sampled_edges) << "id " << id;
    EXPECT_EQ(b.block_rows, a.block_rows) << "id " << id;
    // Trace ids are minted per run; each run traced every request.
    EXPECT_NE(a.trace_id, 0u) << "id " << id;
    EXPECT_NE(b.trace_id, 0u) << "id " << id;
  }
  EXPECT_GT(outcomes[RequestOutcome::kCompleted], 0u);
  EXPECT_GT(outcomes[RequestOutcome::kShed], 0u);
  EXPECT_GT(outcomes[RequestOutcome::kDeadlineMissed], 0u);
}

// ---------------------------------------------------------------------------
// Tracing: every offered request — served, shed or abandoned — gets a
// "serve/request" root span, so the trace timeline shows the whole offered
// stream, not just the survivors.

TEST(ServeEngineTest, EveryOfferedRequestGetsATraceRoot) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 8);

  obs::Tracer tracer;
  obs::SetDefaultTracer(&tracer);
  ServeConfig cfg = SmallServeConfig();
  cfg.max_in_flight = 2;  // force some sheds into the trace
  ServeEngine engine(graph, features, cfg);

  LoadConfig load;
  load.num_requests = 60;
  load.roots_per_request = 4;
  load.arrival_rate_rps = 50000.0;
  load.seed = 55;
  const LoadGenerator gen(graph, load);
  const LatencyReport report = engine.Run(gen);
  obs::SetDefaultTracer(nullptr);
  EXPECT_GT(report.shed, 0u);

  const obs::TraceForest forest = obs::AssembleTraces(tracer.Events());
  size_t roots = 0;
  size_t with_compute = 0;
  for (const obs::TraceTree& tree : forest.traces) {
    if (tree.root_event().name != "serve/request") continue;
    ++roots;
    for (const size_t child : tree.nodes[tree.root].children) {
      if (tree.nodes[child].event.name == "serve/compute") ++with_compute;
    }
  }
  EXPECT_EQ(roots, report.offered);
  // Every offered request is served before the model decides its outcome;
  // only the completed ones keep their fingerprint.
  EXPECT_EQ(with_compute, report.offered);
  for (const RequestResult& r : engine.results()) {
    if (r.outcome != RequestOutcome::kCompleted) {
      EXPECT_EQ(r.fingerprint, 0u);
    }
  }
}

// A caller that runs the engine inside a span of its own, as a benchmark
// loop does, must still get one parentless root per request: nested under
// the caller's span, the requests would share its trace and the flight
// recorder could not rematch them by trace id.
TEST(ServeEngineTest, RequestRootsAreParentlessInsideCallerSpan) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 8);
  LoadConfig load;
  load.num_requests = 120;
  load.roots_per_request = 4;
  load.arrival_rate_rps = 50000.0;
  load.seed = 57;
  const LoadGenerator gen(graph, load);

  for (const size_t depth : {size_t{0}, size_t{2}}) {
    obs::Tracer tracer;
    obs::SetDefaultTracer(&tracer);
    ServeConfig cfg = SmallServeConfig();
    cfg.max_in_flight = 2;
    cfg.pipeline_depth = depth;
    ServeEngine engine(graph, features, cfg);
    uint64_t caller_trace = 0;
    {
      obs::ScopedSpan run("caller/run");
      caller_trace = obs::CurrentTraceContext().trace_id;
      engine.Run(gen);
    }
    obs::SetDefaultTracer(nullptr);

    std::set<uint64_t> trace_ids;
    for (const RequestResult& r : engine.results()) {
      EXPECT_NE(r.trace_id, 0u) << "depth " << depth;
      EXPECT_NE(r.trace_id, caller_trace) << "depth " << depth;
      trace_ids.insert(r.trace_id);
    }
    EXPECT_EQ(trace_ids.size(), load.num_requests) << "depth " << depth;

    size_t request_roots = 0;
    for (const obs::SpanEvent& e : tracer.Events()) {
      if (e.name != "serve/request") continue;
      EXPECT_EQ(e.parent_span_id, 0u) << "depth " << depth;
      EXPECT_EQ(e.trace_id, e.span_id) << "depth " << depth;
      EXPECT_EQ(trace_ids.count(e.trace_id), 1u) << "depth " << depth;
      ++request_roots;
    }
    EXPECT_EQ(request_roots, load.num_requests) << "depth " << depth;
    // Each request's trace is one tree rooted at its own span.
    const obs::TraceForest forest = obs::AssembleTraces(tracer.Events());
    EXPECT_EQ(forest.orphan_spans, 0u) << "depth " << depth;
  }
}

}  // namespace
}  // namespace serve
}  // namespace aligraph
