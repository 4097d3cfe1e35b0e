// Tests for the tail-latency attribution stack: per-request budget
// accounting identities against a real serving run, p50-vs-p99 cohort
// separation on a synthetic slow-gather workload, the serving timeline
// derived from a run's results (quiet windows, per-window percentiles, the
// window cap), flight-recorder reservoir bounds / determinism / JSON
// round-trip, wall budgets recovered from trace trees, and bit-identical
// budgets across pipeline depths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "algo/embedding_algorithm.h"
#include "gen/powerlaw.h"
#include "graph/graph.h"
#include "obs/attrib.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "serve/load_generator.h"
#include "serve/serve_engine.h"

namespace aligraph {
namespace {

AttributedGraph TestGraph() {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 2000;
  cfg.avg_degree = 8;
  cfg.seed = 11;
  return std::move(gen::ChungLu(cfg)).value();
}

serve::ServeConfig SmallServeConfig() {
  serve::ServeConfig cfg;
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

serve::LoadConfig OpenLoad(uint64_t n, double rate) {
  serve::LoadConfig load;
  load.mode = serve::LoadConfig::Mode::kOpen;
  load.num_requests = n;
  load.roots_per_request = 3;
  load.arrival_rate_rps = rate;
  load.seed = 7;
  return load;
}

/// A synthetic completed budget: `gather` slow-phase plus fixed
/// sample/compute, total derived so coverage is exact.
obs::RequestBudget MakeBudget(uint64_t id, double queue_us, double gather_us) {
  obs::RequestBudget b;
  b.request_id = id;
  b.outcome = obs::RequestBudget::Outcome::kCompleted;
  b.at(obs::BudgetComponent::kQueueWait) = queue_us;
  b.at(obs::BudgetComponent::kSample) = 30.0;
  b.at(obs::BudgetComponent::kGather) = gather_us;
  b.at(obs::BudgetComponent::kCompute) = 20.0;
  b.total_us = b.attributed_us();
  return b;
}

/// The budgets of the engine's last Run, indexed by request id.
std::vector<obs::RequestBudget> Budgets(const serve::ServeEngine& engine) {
  std::vector<obs::RequestBudget> budgets;
  for (uint64_t id = 0; id < engine.results().size(); ++id) {
    budgets.push_back(
        serve::BudgetFor(id, engine.results()[id], engine.config()));
  }
  return budgets;
}

// ---------------------------------------------------------------------------
// RequestBudget accounting against a real serving run.

TEST(AttribTest, ServeBudgetsAccountForModeledLatency) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 12);
  // Overloaded enough that the run has queueing, sheds and (thanks to the
  // tight deadline) abandonments — all three outcomes must account.
  serve::ServeConfig scfg = SmallServeConfig();
  scfg.max_in_flight = 4;
  // Service is ~90-100us here; a 150us deadline abandons queued requests
  // while un-queued ones still complete, so all three outcomes appear.
  scfg.deadline_us = 150.0;
  serve::ServeEngine engine(graph, features, scfg);
  const serve::LoadGenerator gen(graph, OpenLoad(300, 12000.0));
  const serve::LatencyReport report = engine.Run(gen);

  const std::vector<obs::RequestBudget> budgets = Budgets(engine);
  ASSERT_EQ(budgets.size(), 300u);
  uint64_t completed = 0, shed = 0, abandoned = 0;
  for (uint64_t id = 0; id < budgets.size(); ++id) {
    const obs::RequestBudget& b = budgets[id];
    const serve::RequestResult& r = engine.results()[id];
    EXPECT_EQ(b.request_id, id);
    switch (b.outcome) {
      case obs::RequestBudget::Outcome::kCompleted: {
        ++completed;
        EXPECT_EQ(r.outcome, serve::RequestOutcome::kCompleted);
        EXPECT_EQ(b.trace_id, r.trace_id);
        // The accounting identity: components sum to the independently
        // derived total up to floating-point association.
        EXPECT_NEAR(b.attributed_us(), b.total_us,
                    1e-9 * std::max(1.0, b.total_us));
        EXPECT_DOUBLE_EQ(b.total_us, r.latency_us);
        EXPECT_DOUBLE_EQ(b.at(obs::BudgetComponent::kQueueWait),
                         r.queue_wait_us);
        EXPECT_GT(b.at(obs::BudgetComponent::kCompute), 0.0);
        EXPECT_GE(b.coverage(), 0.999);
        break;
      }
      case obs::RequestBudget::Outcome::kShed:
        ++shed;
        EXPECT_EQ(r.outcome, serve::RequestOutcome::kShed);
        EXPECT_DOUBLE_EQ(b.total_us, 0.0);
        EXPECT_DOUBLE_EQ(b.attributed_us(), 0.0);
        EXPECT_DOUBLE_EQ(b.coverage(), 1.0);
        break;
      case obs::RequestBudget::Outcome::kAbandoned:
        ++abandoned;
        EXPECT_EQ(r.outcome, serve::RequestOutcome::kDeadlineMissed);
        EXPECT_DOUBLE_EQ(b.total_us, scfg.deadline_us);
        EXPECT_DOUBLE_EQ(b.at(obs::BudgetComponent::kAbandoned),
                         scfg.deadline_us);
        break;
    }
  }
  EXPECT_EQ(completed, report.completed);
  EXPECT_EQ(shed, report.shed);
  EXPECT_EQ(abandoned, report.deadline_missed);
  EXPECT_GT(shed, 0u) << "workload did not exercise shedding";
  EXPECT_GT(abandoned, 0u) << "workload did not exercise abandonment";
  // The gated aggregate: the sim declares a component for (essentially)
  // every modeled microsecond, and Run reports it from the same budgets.
  EXPECT_GE(report.attrib_coverage, 0.999);
  EXPECT_EQ(report.attrib_coverage,
            obs::BuildAttributionReport(budgets).coverage);
}

TEST(AttribTest, CohortReportSeparatesSlowGatherTail) {
  // 95 fast requests (tiny gather, no queueing) + 5 tail requests whose
  // latency is dominated by gather: the p99 cohort's gather share must
  // exceed the p50 cohort's, and the deltas must point at gather.
  std::vector<obs::RequestBudget> budgets;
  for (uint64_t id = 0; id < 95; ++id) {
    budgets.push_back(MakeBudget(id, 1.0, 10.0));
  }
  for (uint64_t id = 95; id < 100; ++id) {
    budgets.push_back(MakeBudget(id, 1.0, 900.0));
  }
  const obs::AttributionReport report =
      obs::BuildAttributionReport(budgets);
  EXPECT_EQ(report.requests, 100u);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  EXPECT_DOUBLE_EQ(report.min_coverage, 1.0);
  ASSERT_GT(report.low.requests, 0u);
  ASSERT_GT(report.high.requests, 0u);
  EXPECT_LT(report.low.threshold_us, report.high.threshold_us);
  const size_t gather = static_cast<size_t>(obs::BudgetComponent::kGather);
  const size_t sample = static_cast<size_t>(obs::BudgetComponent::kSample);
  EXPECT_GT(report.high.share[gather], report.low.share[gather]);
  EXPECT_LT(report.high.share[sample], report.low.share[sample]);
  // The slow cohort really is the 900us-gather population.
  EXPECT_NEAR(report.high.mean_us[gather], 900.0, 1e-9);
  // Storage order must not matter: reversed budgets, identical report.
  std::vector<obs::RequestBudget> reversed(budgets.rbegin(), budgets.rend());
  const obs::AttributionReport again =
      obs::BuildAttributionReport(reversed);
  EXPECT_EQ(again.low.requests, report.low.requests);
  EXPECT_EQ(again.high.requests, report.high.requests);
  for (size_t c = 0; c < obs::kNumBudgetComponents; ++c) {
    EXPECT_DOUBLE_EQ(again.high.share[c], report.high.share[c]);
    EXPECT_DOUBLE_EQ(again.low.mean_us[c], report.low.mean_us[c]);
  }
}

TEST(AttribTest, EmptyAndShedOnlyPopulations) {
  const obs::AttributionReport empty = obs::BuildAttributionReport({});
  EXPECT_EQ(empty.requests, 0u);
  EXPECT_DOUBLE_EQ(empty.coverage, 1.0);

  std::vector<obs::RequestBudget> sheds(4);
  for (auto& b : sheds) b.outcome = obs::RequestBudget::Outcome::kShed;
  const obs::AttributionReport report = obs::BuildAttributionReport(sheds);
  EXPECT_EQ(report.requests, 0u) << "shed requests are not a latency cohort";
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
}

TEST(AttribTest, ComponentAndOutcomeNamesRoundTrip) {
  for (size_t c = 0; c < obs::kNumBudgetComponents; ++c) {
    const auto component = static_cast<obs::BudgetComponent>(c);
    const auto parsed =
        obs::BudgetComponentFromName(obs::BudgetComponentName(component));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, component);
  }
  EXPECT_FALSE(obs::BudgetComponentFromName("bogus").ok());
  for (const auto outcome : {obs::RequestBudget::Outcome::kCompleted,
                             obs::RequestBudget::Outcome::kShed,
                             obs::RequestBudget::Outcome::kAbandoned}) {
    const auto parsed =
        obs::BudgetOutcomeFromName(obs::BudgetOutcomeName(outcome));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, outcome);
  }
  EXPECT_FALSE(obs::BudgetOutcomeFromName("bogus").ok());
}

// ---------------------------------------------------------------------------
// The serving timeline, derived from a run's results.

TEST(ServeTimelineTest, WindowsRecountResults) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 12);
  const serve::LoadGenerator gen(graph, OpenLoad(300, 12000.0));
  // Overloaded with a tight deadline (as in ServeBudgetsAccountForModeled-
  // Latency), so every window column sees events.
  auto run = [&](double interval_us) {
    serve::ServeConfig cfg = SmallServeConfig();
    cfg.max_in_flight = 4;
    cfg.deadline_us = 150.0;
    cfg.timeline_interval_us = interval_us;
    serve::ServeEngine engine(graph, features, cfg);
    engine.Run(gen);
    return std::make_pair(engine.results(), engine.Timeline());
  };

  // 60us windows are shorter than the mean arrival gap (~83us), so the
  // timeline has quiet windows between its first and last.
  const double interval_us = 60.0;
  const auto [results, tl] = run(interval_us);
  ASSERT_FALSE(tl.windows.empty());
  EXPECT_EQ(tl.interval_us, interval_us);
  // The modeled time of a request's one outcome event.
  auto outcome_us = [](const serve::RequestResult& r) {
    switch (r.outcome) {
      case serve::RequestOutcome::kCompleted:
        return r.finish_us;
      case serve::RequestOutcome::kDeadlineMissed:
        return r.arrival_us + 150.0;
      case serve::RequestOutcome::kShed:
        break;
    }
    return r.arrival_us;
  };
  auto window_of = [&](double t_us) {
    return static_cast<int64_t>(std::floor(t_us / interval_us)) -
           tl.first_index;
  };
  // Each window's counts and latencies, recounted from the results.
  std::vector<uint64_t> offered(tl.windows.size()), shed(tl.windows.size()),
      missed(tl.windows.size());
  std::vector<std::vector<double>> latencies(tl.windows.size());
  for (const serve::RequestResult& r : results) {
    ++offered.at(window_of(r.arrival_us));
    const size_t w = window_of(outcome_us(r));
    switch (r.outcome) {
      case serve::RequestOutcome::kCompleted:
        latencies.at(w).push_back(r.latency_us);
        break;
      case serve::RequestOutcome::kShed:
        ++shed.at(w);
        break;
      case serve::RequestOutcome::kDeadlineMissed:
        ++missed.at(w);
        break;
    }
  }
  size_t quiet_inside = 0;
  uint64_t completed = 0, shed_total = 0, missed_total = 0;
  obs::MetricsRegistry registry;
  for (size_t i = 0; i < tl.windows.size(); ++i) {
    const serve::TimelineWindow& w = tl.windows[i];
    EXPECT_EQ(w.offered, offered[i]) << "window " << i;
    EXPECT_EQ(w.completed(), latencies[i].size()) << "window " << i;
    EXPECT_EQ(w.shed, shed[i]) << "window " << i;
    EXPECT_EQ(w.missed, missed[i]) << "window " << i;
    EXPECT_EQ(tl.start_us(i),
              static_cast<double>(tl.first_index + static_cast<int64_t>(i)) *
                  interval_us);
    EXPECT_EQ(tl.goodput_rps(i), static_cast<double>(latencies[i].size()) /
                                     (interval_us * 1e-6));
    // The window's percentiles are those of a latency histogram over just
    // its completions.
    obs::Histogram* h = registry.GetHistogram("window" + std::to_string(i));
    for (const double v : latencies[i]) h->Record(v);
    const obs::HistogramSnapshot want = h->Snapshot();
    EXPECT_EQ(w.latency.Percentile(50.0), want.Percentile(50.0));
    EXPECT_EQ(w.latency.Percentile(99.0), want.Percentile(99.0));
    const bool quiet = w.offered == 0 && w.completed() == 0 && w.shed == 0 &&
                       w.missed == 0;
    if (quiet && i > 0 && i + 1 < tl.windows.size()) ++quiet_inside;
    completed += w.completed();
    shed_total += w.shed;
    missed_total += w.missed;
  }
  EXPECT_GT(quiet_inside, 0u) << "no quiet window was materialized";
  // Uncapped, every request is counted once and finishes once.
  EXPECT_EQ(completed + shed_total + missed_total, results.size());
  EXPECT_GT(shed_total, 0u);
  EXPECT_GT(missed_total, 0u);

  // 1us windows: the ~25ms run spans far more than kTimelineWindows
  // windows; the timeline keeps only the most recent ones.
  const auto [fine_results, fine] = run(1.0);
  ASSERT_EQ(fine.windows.size(), serve::kTimelineWindows);
  int64_t last = 0;
  for (const serve::RequestResult& r : fine_results) {
    last = std::max(last, static_cast<int64_t>(std::floor(outcome_us(r))));
  }
  EXPECT_EQ(fine.first_index + static_cast<int64_t>(fine.windows.size()) - 1,
            last);
  uint64_t kept = 0;
  for (const serve::RequestResult& r : fine_results) {
    if (std::floor(r.arrival_us) >= static_cast<double>(fine.first_index)) {
      ++kept;
    }
  }
  uint64_t offered_kept = 0;
  for (const serve::TimelineWindow& w : fine.windows) offered_kept += w.offered;
  EXPECT_EQ(offered_kept, kept);
}

// ---------------------------------------------------------------------------
// FlightRecorder: bounds, determinism, round trip, trace capture.

TEST(RecorderTest, ReservoirBoundsAndSlowestSelection) {
  obs::FlightRecorderConfig cfg;
  cfg.slowest_k = 4;
  cfg.sample_k = 3;
  cfg.seed = 5;
  obs::FlightRecorder recorder(cfg);
  // 200 completed requests with distinct latencies 1..200.
  for (uint64_t id = 0; id < 200; ++id) {
    recorder.Offer(MakeBudget(id, static_cast<double>(id), 10.0));
  }
  EXPECT_EQ(recorder.offered(), 200u);
  const std::vector<obs::Exemplar> exemplars = recorder.Exemplars();
  EXPECT_LE(exemplars.size(), cfg.slowest_k + cfg.sample_k);
  // The slow flag marks exactly the 4 largest totals, slowest first.
  std::vector<uint64_t> slow_ids;
  for (const obs::Exemplar& ex : exemplars) {
    if (ex.slow) slow_ids.push_back(ex.budget.request_id);
  }
  EXPECT_EQ(slow_ids, (std::vector<uint64_t>{199, 198, 197, 196}));
  // No duplicate requests even when both reservoirs retained one.
  std::set<uint64_t> ids;
  for (const obs::Exemplar& ex : exemplars) {
    EXPECT_TRUE(ids.insert(ex.budget.request_id).second);
  }
}

TEST(RecorderTest, ReservoirIsDeterministicInSeed) {
  auto run = [](uint64_t seed) {
    obs::FlightRecorderConfig cfg;
    cfg.slowest_k = 2;
    cfg.sample_k = 4;
    cfg.seed = seed;
    obs::FlightRecorder recorder(cfg);
    for (uint64_t id = 0; id < 500; ++id) {
      recorder.Offer(MakeBudget(id, static_cast<double>(id % 91), 10.0));
    }
    std::vector<uint64_t> ids;
    for (const obs::Exemplar& ex : recorder.Exemplars()) {
      ids.push_back(ex.budget.request_id);
    }
    return ids;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6)) << "seed does not steer the reservoir";
}

TEST(RecorderTest, DumpJsonRoundTrips) {
  obs::FlightRecorderConfig cfg;
  cfg.slowest_k = 2;
  cfg.sample_k = 2;
  obs::FlightRecorder recorder(cfg);
  std::vector<obs::RequestBudget> budgets;
  for (uint64_t id = 0; id < 20; ++id) {
    obs::RequestBudget b = MakeBudget(id, static_cast<double>(id), 10.0);
    b.trace_id = 1000 + id;
    budgets.push_back(b);
    recorder.Offer(b, {{"sampled_edges", 40 + id}});
  }
  recorder.SetAttribution(obs::BuildAttributionReport(budgets));
  const std::string json = recorder.ToJson("roundtrip");

  const auto dump = obs::ParseRecorderDump(json);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_EQ(dump->name, "roundtrip");
  EXPECT_EQ(dump->offered, 20u);
  EXPECT_EQ(dump->config.slowest_k, 2u);
  EXPECT_EQ(dump->config.sample_k, 2u);
  ASSERT_TRUE(dump->has_attribution);
  EXPECT_EQ(dump->attribution.requests, 20u);
  EXPECT_DOUBLE_EQ(dump->attribution.coverage, 1.0);

  const std::vector<obs::Exemplar> original = recorder.Exemplars();
  ASSERT_EQ(dump->exemplars.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    const obs::Exemplar& a = original[i];
    const obs::Exemplar& b = dump->exemplars[i];
    EXPECT_EQ(a.budget.request_id, b.budget.request_id);
    EXPECT_EQ(a.budget.trace_id, b.budget.trace_id);
    EXPECT_EQ(a.budget.outcome, b.budget.outcome);
    EXPECT_EQ(a.slow, b.slow);
    EXPECT_EQ(a.sampled, b.sampled);
    EXPECT_DOUBLE_EQ(a.budget.total_us, b.budget.total_us);
    for (size_t c = 0; c < obs::kNumBudgetComponents; ++c) {
      EXPECT_DOUBLE_EQ(a.budget.components[c], b.budget.components[c]);
    }
    EXPECT_EQ(a.counters, b.counters);
  }
  EXPECT_FALSE(obs::ParseRecorderDump("{\"nope\": 1}").ok());
  EXPECT_FALSE(obs::ParseRecorderDump("not json").ok());
  // Integer fields are outside input: a negative, non-integral or
  // out-of-range number is refused rather than cast.
  for (const char* bad : {
           R"({"schema_version":1,"offered":-1})",
           R"({"schema_version":1,"config":{"slowest_k":1e300}})",
           R"({"schema_version":1,"exemplars":[{"spans":[{"depth":-1}]}]})",
       }) {
    EXPECT_FALSE(obs::ParseRecorderDump(bad).ok()) << bad;
  }
  // Integer fields are read from their literals, so every 64-bit value
  // round-trips exactly; a double holds only 53 bits.
  for (const uint64_t seed : {(uint64_t{1} << 53) + 1,
                              std::numeric_limits<uint64_t>::max()}) {
    obs::FlightRecorderConfig wide = cfg;
    wide.seed = seed;
    const auto parsed =
        obs::ParseRecorderDump(obs::FlightRecorder(wide).ToJson("seed"));
    ASSERT_TRUE(parsed.ok()) << seed << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->config.seed, seed);
  }
}

TEST(RecorderTest, CaptureTracesAttachesServeRequestTrees) {
  obs::Tracer tracer;
  obs::SetDefaultTracer(&tracer);
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 12);
  serve::ServeEngine engine(graph, features, SmallServeConfig());
  const serve::LoadGenerator gen(graph, OpenLoad(64, 4000.0));
  engine.Run(gen);
  obs::SetDefaultTracer(nullptr);

  // Offered after the run, in id order, as bench_serve offers them.
  obs::FlightRecorder recorder;
  for (const obs::RequestBudget& b : Budgets(engine)) {
    EXPECT_NE(b.trace_id, 0u) << "request " << b.request_id;
    recorder.Offer(b);
  }
  const size_t captured = recorder.CaptureTraces(tracer.Events());
  EXPECT_GT(captured, 0u);
  size_t with_spans = 0;
  for (const obs::Exemplar& ex : recorder.Exemplars()) {
    if (ex.spans.empty()) continue;
    ++with_spans;
    const obs::TraceForest forest = obs::AssembleTraces(ex.spans);
    ASSERT_EQ(forest.traces.size(), 1u);
    EXPECT_EQ(forest.traces[0].trace_id, ex.budget.trace_id);
    EXPECT_EQ(forest.traces[0].root_event().name, "serve/request");
  }
  EXPECT_EQ(with_spans, captured);
}

// ---------------------------------------------------------------------------
// Wall budgets from trace trees.

TEST(AttribTest, BudgetFromTraceTreeMapsDirectChildren) {
  // root (1000ns) -> sample(300) + gather(200) + compute(400) + misc(50),
  // with a nested sub-span under sample that must NOT be double-counted.
  std::vector<obs::SpanEvent> events;
  auto add = [&](const char* name, uint64_t span, uint64_t parent,
                 int64_t start, int64_t dur) {
    obs::SpanEvent ev;
    ev.name = name;
    ev.trace_id = 42;
    ev.span_id = span;
    ev.parent_span_id = parent;
    ev.start_ns = start;
    ev.duration_ns = dur;
    events.push_back(ev);
  };
  add("serve/request", 1, 0, 0, 1000);
  add("serve/sample", 2, 1, 0, 300);
  add("sample/hop", 5, 2, 10, 100);  // nested: ignored
  add("serve/gather", 3, 1, 300, 200);
  add("serve/compute", 4, 1, 500, 400);
  add("misc", 6, 1, 900, 50);  // unattributed child
  const obs::TraceForest forest = obs::AssembleTraces(events);
  ASSERT_EQ(forest.traces.size(), 1u);

  const obs::RequestBudget wall =
      obs::BudgetFromTraceTree(forest.traces[0]);
  EXPECT_EQ(wall.trace_id, 42u);
  EXPECT_DOUBLE_EQ(wall.total_us, 1.0);
  EXPECT_DOUBLE_EQ(wall.at(obs::BudgetComponent::kSample), 0.3);
  EXPECT_DOUBLE_EQ(wall.at(obs::BudgetComponent::kGather), 0.2);
  EXPECT_DOUBLE_EQ(wall.at(obs::BudgetComponent::kCompute), 0.4);
  // misc's 50ns stays unattributed and shows up as a coverage gap.
  EXPECT_NEAR(wall.coverage(), 0.9, 1e-9);
}

// ---------------------------------------------------------------------------
// Determinism across pipeline depths.

TEST(AttribTest, BudgetsAndTimelineBitIdenticalAcrossDepths) {
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 12);
  const serve::LoadConfig load = OpenLoad(200, 9000.0);

  auto run = [&](size_t depth) {
    serve::ServeConfig cfg = SmallServeConfig();
    cfg.pipeline_depth = depth;
    cfg.max_in_flight = 4;
    cfg.timeline_interval_us = 1000.0;
    serve::ServeEngine engine(graph, features, cfg);
    const serve::LoadGenerator gen(graph, load);
    engine.Run(gen);
    const serve::ServeTimeline tl = engine.Timeline();
    std::vector<double> windows{static_cast<double>(tl.first_index)};
    for (const serve::TimelineWindow& w : tl.windows) {
      windows.insert(windows.end(),
                     {static_cast<double>(w.offered),
                      static_cast<double>(w.completed()),
                      static_cast<double>(w.shed),
                      static_cast<double>(w.missed), w.latency.sum,
                      w.latency.Percentile(50.0), w.latency.Percentile(99.0)});
    }
    return std::make_pair(Budgets(engine), windows);
  };
  const auto [budgets1, timeline1] = run(1);
  const auto [budgets3, timeline3] = run(3);
  ASSERT_EQ(budgets1.size(), budgets3.size());
  for (size_t i = 0; i < budgets1.size(); ++i) {
    EXPECT_EQ(budgets1[i].outcome, budgets3[i].outcome) << "request " << i;
    // Bit-equal, not approximately equal: the modeled decomposition is a
    // pure function of (graph, config, load), pipeline depth included out.
    EXPECT_EQ(budgets1[i].total_us, budgets3[i].total_us) << "request " << i;
    for (size_t c = 0; c < obs::kNumBudgetComponents; ++c) {
      EXPECT_EQ(budgets1[i].components[c], budgets3[i].components[c])
          << "request " << i << " component " << c;
    }
  }
  EXPECT_EQ(timeline1, timeline3);

  // And the cohort report built from them is bit-identical too.
  const obs::AttributionReport r1 = obs::BuildAttributionReport(budgets1);
  const obs::AttributionReport r3 = obs::BuildAttributionReport(budgets3);
  EXPECT_EQ(r1.coverage, r3.coverage);
  for (size_t c = 0; c < obs::kNumBudgetComponents; ++c) {
    EXPECT_EQ(r1.high.share[c], r3.high.share[c]);
    EXPECT_EQ(r1.low.share[c], r3.low.share[c]);
  }
}

}  // namespace
}  // namespace aligraph
