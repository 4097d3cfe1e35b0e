/// \file bench_serve.cc
/// \brief Online serving experiment: SLO-driven request front-end over the
/// block execution path, driven by closed- and open-loop load.
///
/// Sweeps an open-loop Poisson stream across light / saturated / overloaded
/// arrival rates plus one closed-loop client population, and reports the
/// modeled tail latency (p50/p99/p99.9), goodput, shed rate and deadline
/// miss rate of each. All gated numbers live on the MODELED clock of
/// ServeEngine's discrete-event simulation, so they are a pure function of
/// (scale, seed) — byte-identical across machines — which is what lets CI
/// gate serving p99 and goodput against bench/baseline.json the same way it
/// gates the training-pipeline speedup. Run with --trace-out to export the
/// per-request Chrome trace and the slowest request's critical path.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/embedding_algorithm.h"
#include "bench_util.h"
#include "gen/powerlaw.h"
#include "nn/matrix.h"
#include "obs/attrib.h"
#include "obs/recorder.h"
#include "serve/load_generator.h"
#include "serve/serve_engine.h"

namespace {

using namespace aligraph;

struct Scenario {
  std::string key;     ///< metric prefix, e.g. "serve.open_1x"
  std::string label;   ///< table cell
  serve::LoadConfig load;
};

/// One scenario's timeline as report-table rows.
std::vector<std::vector<std::string>> TimelineRows(
    const serve::ServeTimeline& tl) {
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < tl.windows.size(); ++i) {
    const serve::TimelineWindow& w = tl.windows[i];
    rows.push_back({bench::Fmt("%.1f", tl.start_us(i) * 1e-3),
                    std::to_string(w.offered), std::to_string(w.completed()),
                    std::to_string(w.shed), std::to_string(w.missed),
                    bench::Fmt("%.1f", tl.goodput_rps(i)),
                    bench::Fmt("%.1f", w.latency.Percentile(50.0)),
                    bench::Fmt("%.1f", w.latency.Percentile(99.0))});
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::Parse(argc, argv);
  bench::ObsBench obs("bench_serve", args);
  bench::Banner(
      "Online serving: tail latency under closed/open-loop load",
      "the platform serves online GNN queries at production latency "
      "(Section 5: ~20ms P99 at Taobao scale); here the modeled serving "
      "sim gates p99 / p99.9 / goodput deterministically");

  // Power-law graph standing in for the serving catalog; Zipf-hot requests
  // concentrate on its hubs exactly as production traffic does.
  gen::ChungLuConfig gcfg;
  gcfg.num_vertices = std::max<VertexId>(
      static_cast<VertexId>(40000 * args.scale), 500);
  gcfg.avg_degree = 8;
  gcfg.seed = args.seed;
  const AttributedGraph graph = std::move(gen::ChungLu(gcfg)).value();
  const nn::Matrix features = algo::BuildFeatureMatrix(graph, 16);
  std::printf("graph: %u vertices, %zu edges | %zu requests/scenario\n\n",
              graph.num_vertices(), graph.num_edges(),
              static_cast<size_t>(std::max(4000.0 * args.scale, 200.0)));

  serve::ServeConfig scfg;
  scfg.fanout1 = 10;
  scfg.fanout2 = 5;
  scfg.dim = 32;
  scfg.max_in_flight = 16;
  scfg.lanes = 2;
  scfg.deadline_us = 5000.0;
  scfg.pipeline_depth = 2;
  scfg.seed = args.seed + 29;
  // 50ms modeled windows: each scenario's stream spans a few hundred ms to
  // ~1.5s, so the timeline gets a handful-to-dozens of points.
  scfg.timeline_interval_us = 50000.0;
  serve::ServeEngine engine(graph, features, scfg);

  // Modeled capacity with these fans is ~7k rps on 2 lanes; the sweep
  // brackets it from well under to 1.7x over.
  const uint64_t num_requests =
      static_cast<uint64_t>(std::max(4000.0 * args.scale, 200.0));
  auto open_load = [&](double rate) {
    serve::LoadConfig load;
    load.mode = serve::LoadConfig::Mode::kOpen;
    load.num_requests = num_requests;
    load.roots_per_request = 4;
    load.zipf_exponent = 0.9;
    load.arrival_rate_rps = rate;
    load.seed = args.seed + 17;
    return load;
  };
  serve::LoadConfig closed_load;
  closed_load.mode = serve::LoadConfig::Mode::kClosed;
  closed_load.num_requests = num_requests;
  closed_load.roots_per_request = 4;
  closed_load.zipf_exponent = 0.9;
  closed_load.num_users = 8;
  closed_load.think_time_us = 500.0;
  closed_load.seed = args.seed + 17;

  const std::vector<Scenario> scenarios = {
      {"serve.open_light", "open 3k rps", open_load(3000.0)},
      {"serve.open", "open 6k rps", open_load(6000.0)},
      {"serve.open_overload", "open 12k rps", open_load(12000.0)},
      {"serve.closed", "closed 8 users", closed_load},
  };

  // The gated "serve.open" scenario's results also feed a flight recorder:
  // K slowest completed requests + a uniform sample, traces rematched from
  // the span rings after the run, dumped for tools/trace_attrib.
  obs::FlightRecorderConfig rcfg;
  rcfg.slowest_k = 8;
  rcfg.sample_k = 8;
  rcfg.seed = args.seed;
  obs::FlightRecorder recorder(rcfg);
  obs::AttributionReport open_attrib;

  double min_coverage = 1.0;
  // Timeline rows are built inside the loop (the next Run() overwrites the
  // results they derive from) but emitted as report tables only after the
  // serving table's rows are complete — AddRow appends to the LAST table.
  std::vector<std::vector<std::vector<std::string>>> timelines;
  obs.Table("serving", {"scenario", "completed", "shed %", "miss %",
                        "p50 us", "p99 us", "p99.9 us", "goodput rps"});
  for (const Scenario& s : scenarios) {
    const serve::LoadGenerator gen(graph, s.load);
    const serve::LatencyReport r = engine.Run(gen);
    obs.TableRow({s.label,
                  std::to_string(r.completed) + "/" + std::to_string(r.offered),
                  bench::Pct(r.shed_rate), bench::Pct(r.deadline_miss_rate),
                  bench::Fmt("%.1f", r.p50_us), bench::Fmt("%.1f", r.p99_us),
                  bench::Fmt("%.1f", r.p999_us),
                  bench::Fmt("%.1f", r.goodput_rps)});
    // Modeled numbers only: deterministic, hence gateable.
    obs.report().AddMetric(s.key + ".p50_modeled_us", r.p50_us);
    obs.report().AddMetric(s.key + ".p99_modeled_us", r.p99_us);
    obs.report().AddMetric(s.key + ".p999_modeled_us", r.p999_us);
    obs.report().AddMetric(s.key + ".goodput_rps", r.goodput_rps);
    obs.report().AddMetric(s.key + ".shed_rate", r.shed_rate);
    obs.report().AddMetric(s.key + ".deadline_miss_rate",
                           r.deadline_miss_rate);
    obs.report().AddMetric(s.key + ".attrib_coverage", r.attrib_coverage);
    min_coverage = std::min(min_coverage, r.attrib_coverage);
    timelines.push_back(TimelineRows(engine.Timeline()));
    if (s.key == "serve.open") {
      // Offered in id order, the order the requests retired in; a shed
      // request's result keeps no block counts, so it carries no counters.
      std::vector<obs::RequestBudget> budgets;
      for (uint64_t id = 0; id < engine.results().size(); ++id) {
        const serve::RequestResult& res = engine.results()[id];
        budgets.push_back(serve::BudgetFor(id, res, scfg));
        if (res.outcome == serve::RequestOutcome::kShed) {
          recorder.Offer(budgets.back());
        } else {
          recorder.Offer(budgets.back(),
                         {{"sampled_edges", res.sampled_edges},
                          {"block_rows", res.block_rows}});
        }
      }
      open_attrib = obs::BuildAttributionReport(budgets);
      recorder.SetAttribution(open_attrib);
      // Capture now: later scenarios keep writing the same span rings, so
      // this run's spans are only guaranteed resident at this point.
      recorder.CaptureTraces(obs.tracer().Events());
    }
  }

  // Worst attribution coverage across the sweep: gated >= 0.95 so a new
  // modeled latency source cannot ship without declaring its budget
  // component.
  obs.report().AddMetric("serve.attrib.coverage", min_coverage);

  for (size_t i = 0; i < scenarios.size(); ++i) {
    obs.report().AddTable(
        "timeline." + scenarios[i].key,
        {"t_ms", "offered", "completed", "shed", "missed", "goodput_rps",
         "p50_us", "p99_us"});
    for (const auto& row : timelines[i]) obs.report().AddRow(row);
  }

  std::printf("\np50-vs-p99 attribution (serve.open):\n%s",
              open_attrib.ToString().c_str());
  const std::string rec_path = args.out_dir + "/bench_serve.flightrec.json";
  const Status st = recorder.WriteJson(rec_path, "bench_serve.serve.open");
  if (st.ok()) {
    std::printf("flight recorder: %s (%llu offered, %zu exemplars)\n",
                rec_path.c_str(),
                static_cast<unsigned long long>(recorder.offered()),
                recorder.Exemplars().size());
  } else {
    std::printf("flight recorder FAILED: %s\n", st.ToString().c_str());
  }

  obs.WriteReport();
  return 0;
}
