// Tests for the tail-latency attribution stack: per-request budget
// accounting identities against a real serving run, p50-vs-p99 cohort
// separation on a synthetic slow-gather workload, windowed time-series
// conservation (including eviction and far jumps), flight-recorder
// reservoir bounds / determinism / JSON round-trip, wall budgets recovered
// from trace trees, and bit-identical budgets across pipeline depths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "algo/embedding_algorithm.h"
#include "gen/powerlaw.h"
#include "graph/graph.h"
#include "obs/attrib.h"
#include "obs/recorder.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "obs/window.h"
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

  const std::vector<obs::RequestBudget>& budgets = engine.budgets();
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
  // every modeled microsecond.
  EXPECT_GE(report.attrib_coverage, 0.999);
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
// WindowedSeries: conservation, rates, percentiles.

TEST(WindowTest, DeltaConservationAcrossEviction) {
  // Tiny ring (4 windows) so advancing time evicts; every recorded count
  // must land either in a retained window or in the eviction tallies.
  obs::WindowedSeries series(100.0, 4);
  uint64_t expected = 0;
  for (int i = 0; i < 40; ++i) {
    series.Count(static_cast<double>(i) * 37.0, 3);
    expected += 3;
  }
  EXPECT_EQ(series.total_count(), expected);
  EXPECT_EQ(series.retained_count() + series.evicted_count(), expected);
  EXPECT_GT(series.evicted_count(), 0u) << "ring never evicted";
  // Retained range is contiguous and bounded by capacity.
  EXPECT_LE(series.windows().size(), 4u);
  for (size_t i = 1; i < series.windows().size(); ++i) {
    EXPECT_EQ(series.windows()[i].index, series.windows()[i - 1].index + 1);
  }
  // A late observation for a window that already fell off the ring is
  // folded into the eviction tally, not dropped.
  series.Count(0.0, 5);
  expected += 5;
  EXPECT_EQ(series.total_count(), expected);
  EXPECT_EQ(series.retained_count() + series.evicted_count(), expected);
}

TEST(WindowTest, FarJumpFoldsRingNotOOM) {
  obs::WindowedSeries series(1.0, 8);
  series.Count(0.0, 2);
  series.Record(3.0, 7.0);
  // A jump 10^9 windows ahead must not materialize 10^9 empty windows.
  series.Count(1e9, 1);
  EXPECT_LE(series.windows().size(), 8u);
  EXPECT_EQ(series.total_count(), 4u);
  EXPECT_EQ(series.retained_count() + series.evicted_count(), 4u);
  EXPECT_DOUBLE_EQ(series.total_sum(), 7.0);
  EXPECT_DOUBLE_EQ(series.evicted_sum(), 7.0);
}

TEST(WindowTest, RateAndPercentilePerWindow) {
  const double bounds[] = {10.0, 100.0, 1000.0};
  obs::WindowedSeries series(1000.0, 8, bounds);  // 1ms windows
  // Window 0: 10 fast observations; window 2: 4 slow ones.
  for (int i = 0; i < 10; ++i) series.Record(500.0, 5.0);
  for (int i = 0; i < 4; ++i) series.Record(2500.0, 500.0);
  EXPECT_DOUBLE_EQ(series.RatePerSec(0), 10.0 / 1e-3);
  EXPECT_DOUBLE_EQ(series.RatePerSec(1), 0.0);
  EXPECT_DOUBLE_EQ(series.RatePerSec(2), 4.0 / 1e-3);
  EXPECT_LE(series.Percentile(0, 99.0), 10.0);
  EXPECT_GT(series.Percentile(2, 99.0), 100.0);
  // Outside the retained range: zero-filled, not UB.
  EXPECT_DOUBLE_EQ(series.RatePerSec(-5), 0.0);
  EXPECT_DOUBLE_EQ(series.Percentile(7, 50.0), 0.0);
  // Quiet window 1 is materialized (a data point, not a gap).
  EXPECT_EQ(series.first_index(), 0);
  EXPECT_EQ(series.last_index(), 2);
  EXPECT_EQ(series.windows().size(), 3u);
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
}

TEST(RecorderTest, CaptureTracesAttachesServeRequestTrees) {
  obs::Tracer tracer;
  obs::SetDefaultTracer(&tracer);
  const AttributedGraph graph = TestGraph();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 12);
  serve::ServeEngine engine(graph, features, SmallServeConfig());
  obs::FlightRecorder recorder;
  engine.set_recorder(&recorder);
  const serve::LoadGenerator gen(graph, OpenLoad(64, 4000.0));
  engine.Run(gen);
  obs::SetDefaultTracer(nullptr);

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
    return std::make_pair(engine.budgets(),
                          [&engine] {
                            std::vector<uint64_t> counts;
                            const serve::ServeTimeline* tl = engine.timeline();
                            for (int64_t w = tl->first_index();
                                 w <= tl->last_index(); ++w) {
                              counts.push_back(tl->offered.At(w).count);
                              counts.push_back(tl->completed.At(w).count);
                              counts.push_back(tl->shed.At(w).count);
                              counts.push_back(tl->missed.At(w).count);
                            }
                            return counts;
                          }());
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
