/// \file workload_serve.cc
/// \brief serve_small: serve::ServeEngine::Run on a 40k-vertex, 320k-edge
/// ChungLu graph (in cache) with bench_serve's ServeConfig. The request
/// stream is fixed: open-loop Poisson at a modeled 5k rps, 4 Zipf(0.9)-over-
/// degree roots per request. One client thread drives Run.
///
/// Run drains the stream as fast as the pipeline lanes go (the open-loop
/// schedule lives on the engine's modeled clock), so throughput_per_s is
/// completed requests per wall second of Run, the median over repeated Runs
/// of the same stream. p50_us / p99_us are each Run's wall latency per
/// completed request (sample start to compute end), read from a
/// fine-bucketed serve.wall_latency_us histogram, median over Runs. All are
/// scaled to nominal host speed (see HostSpeed).

#include <algorithm>
#include <memory>

#include "algo/embedding_algorithm.h"
#include "block/sampled_block.h"
#include "gen/powerlaw.h"
#include "layers.h"
#include "serve/load_generator.h"
#include "serve/serve_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace aligraph;

constexpr VertexId kVertices = 40000;
constexpr size_t kFeatureDim = 16;
constexpr uint64_t kRequestsPerRun = 8000;
constexpr int kSetupReps = 5;  // set-up is ~0.1 s: cheap to repeat
constexpr size_t kReplayRequests = 400;
constexpr size_t kOfflineRequests = 400;
constexpr uint64_t kCheckEvery = 97;

serve::ServeConfig ServeConfigFor(uint64_t seed) {
  // bench_serve's configuration.
  serve::ServeConfig scfg;
  scfg.fanout1 = 10;
  scfg.fanout2 = 5;
  scfg.dim = 32;
  scfg.max_in_flight = 16;
  scfg.lanes = 2;
  scfg.deadline_us = 5000.0;
  scfg.pipeline_depth = 2;
  scfg.seed = seed + 29;
  scfg.timeline_interval_us = 50000.0;
  return scfg;
}

serve::LoadConfig LoadConfigFor(uint64_t seed) {
  serve::LoadConfig load;
  load.mode = serve::LoadConfig::Mode::kOpen;
  load.num_requests = kRequestsPerRun;
  load.roots_per_request = 4;
  load.zipf_exponent = 0.9;
  // bench_serve's 6k rps sits at ~85% of the modeled capacity, where some
  // seeds' Poisson bursts already miss the 5 ms modeled deadline; 5k keeps
  // every request completing.
  load.arrival_rate_rps = 5000.0;
  load.seed = seed + 17;
  return load;
}

/// Geometric 1% buckets from 1 us to ~10 s, so percentiles resolve to about
/// half a percent.
std::vector<double> FineLatencyBounds() {
  std::vector<double> b;
  for (double v = 1.0; v < 1e7; v *= 1.01) b.push_back(v);
  return b;
}

obs::HistogramSnapshot Delta(const obs::HistogramSnapshot& after,
                             const obs::HistogramSnapshot& before) {
  obs::HistogramSnapshot d = after;
  for (size_t i = 0; i < d.counts.size() && i < before.counts.size(); ++i) {
    d.counts[i] -= before.counts[i];
  }
  d.count -= before.count;
  d.sum -= before.sum;
  return d;
}

size_t BlockEdges(const block::SampledBlock& blk) {
  size_t e = 0;
  for (const block::BlockHop& h : blk.hops()) e += h.num_edges();
  return e;
}

}  // namespace

void RunServeSmall(const Args& args, obs::MetricsRegistry* registry,
                   Report* report) {
  // Created before the engine so the engine's handle gets these buckets.
  obs::Histogram* wall = registry->GetHistogram("serve.wall_latency_us",
                                                FineLatencyBounds());
  const serve::ServeConfig scfg = ServeConfigFor(args.seed);
  std::unique_ptr<AttributedGraph> graph;
  nn::Matrix features;
  std::unique_ptr<serve::ServeEngine> engine;
  std::unique_ptr<serve::LoadGenerator> gen;
  HostSpeed speed;
  TimeSetup(kSetupReps, &speed, report, [&] {
    gen.reset();
    engine.reset();
    features = nn::Matrix();
    graph.reset();
    obs::ScopedSpan s("setup");
    gen::ChungLuConfig gcfg;
    gcfg.num_vertices = kVertices;
    gcfg.avg_degree = 8;
    gcfg.seed = args.seed;
    graph = std::make_unique<AttributedGraph>(
        std::move(gen::ChungLu(gcfg)).value());
    features = algo::BuildFeatureMatrix(*graph, kFeatureDim);
    engine = std::make_unique<serve::ServeEngine>(*graph, features, scfg);
    gen = std::make_unique<serve::LoadGenerator>(*graph,
                                                 LoadConfigFor(args.seed));
  });
  std::printf("graph: %u vertices, %zu edges | %llu requests per Run\n",
              graph->num_vertices(), graph->num_edges(),
              static_cast<unsigned long long>(kRequestsPerRun));

  {
    obs::ScopedSpan s("serve/warmup");
    engine->Run(*gen);
  }

  // Every Run is one window: its completed requests per wall second and
  // its own latency percentiles, scaled by the host speed sampled right
  // before and after it. Run's lanes are gone between Runs, so the samples
  // see an idle workload.
  const obs::MetricsSnapshot before = registry->Snapshot();
  std::vector<double> run_us, raw_rps, raw_p50, raw_p99;
  std::vector<int64_t> run_ns;  ///< start, then end of every Run
  uint64_t offered = 0, completed = 0, shed = 0, missed = 0;
  const double t_begin = NowSeconds();
  speed.Sample();
  while (run_us.size() < 3 || NowSeconds() - t_begin < args.seconds) {
    obs::ScopedSpan s("serve/run");
    const obs::HistogramSnapshot lat0 = wall->Snapshot();
    const int64_t t0 = NowNanos();
    const serve::LatencyReport r = engine->Run(*gen);
    run_ns.push_back(t0);
    run_ns.push_back(NowNanos());
    const double dt_us = static_cast<double>(run_ns.back() - t0) * 1e-3;
    const obs::HistogramSnapshot lat = Delta(wall->Snapshot(), lat0);
    run_us.push_back(dt_us);
    raw_rps.push_back(static_cast<double>(r.completed) / (dt_us * 1e-6));
    raw_p50.push_back(lat.Percentile(50));
    raw_p99.push_back(lat.Percentile(99));
    offered += r.offered;
    completed += r.completed;
    shed += r.shed;
    missed += r.deadline_missed;
    speed.Sample();
  }
  const obs::MetricsSnapshot after = registry->Snapshot();
  std::vector<double> rps, p50, p99;
  for (size_t i = 0; i < run_us.size(); ++i) {
    const double sp = speed.Around(run_ns[2 * i], run_ns[2 * i + 1]);
    rps.push_back(ScaleRate(raw_rps[i], sp));
    p50.push_back(ScaleLatency(raw_p50[i], sp));
    p99.push_back(ScaleLatency(raw_p99[i], sp));
  }

  report->Attempt(offered);
  report->Fail(shed + missed, "serve requests shed or past deadline");
  ReportScaled(report, {Median(rps), Median(p50), Median(p99)},
               {Median(raw_rps), Median(raw_p50), Median(raw_p99)},
               speed.Median());
  report->Extra("serve.requests_per_s", Median(raw_rps), "1/s");
  report->Extra("serve.offered", static_cast<double>(offered), "count");
  report->Extra("serve.completed", static_cast<double>(completed), "count");
  report->Extra("serve.shed", static_cast<double>(shed), "count");
  report->Extra("serve.missed", static_cast<double>(missed), "count");
  report->Extra("serve.shed_or_missed_share",
                static_cast<double>(shed + missed) /
                    static_cast<double>(std::max<uint64_t>(offered, 1)),
                "share");
  double run_sum_us = 0;
  for (double v : run_us) run_sum_us += v;
  ReportPipelineShares(before, after, run_sum_us, report);

  // Completed requests of the last Run must replay offline to the same
  // embedding fingerprint.
  uint64_t checked = 0, mismatched = 0;
  for (uint64_t id = 0; id < kRequestsPerRun; id += kCheckEvery) {
    const serve::RequestResult& r = engine->results()[id];
    if (r.outcome != serve::RequestOutcome::kCompleted) continue;
    ++checked;
    if (engine->ExecuteOffline(*gen, id) != r.fingerprint) ++mismatched;
  }
  report->Check(checked > 0 && mismatched == 0,
                "serve fingerprints equal ExecuteOffline (" +
                    std::to_string(mismatched) + " of " +
                    std::to_string(checked) + " differ)");

  if (!args.trace) return;

  // serve.offline_*: the same requests served one at a time, no pipeline.
  std::vector<double> offline_us;
  for (uint64_t id = 0; id < kOfflineRequests; ++id) {
    obs::ScopedSpan s("serve/offline");
    const int64_t t0 = NowNanos();
    engine->ExecuteOffline(*gen, id);
    offline_us.push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
  }
  double offline_sum = 0;
  for (double v : offline_us) offline_sum += v;
  report->Extra("serve.offline_p50_us", Percentile(offline_us, 50), "us");
  report->Extra("serve.offline_p99_us", Percentile(offline_us, 99), "us");
  // Sequential cost of a Run's completed requests over the pipelined Run's
  // wall time: what overlapping the three lanes buys.
  report->Extra("serve.overlap_gain",
                offline_sum / static_cast<double>(offline_us.size()) *
                    static_cast<double>(completed) / run_sum_us,
                "ratio");

  LocalNeighborSource source(*graph);
  block::MatrixFeatureSource feature_source(features);
  LayerReplay rp;
  rp.graph = graph.get();
  rp.source = &source;
  rp.features = &feature_source;
  rp.roots = [&](size_t i) { return gen->RootsFor(i); };
  rp.sampler_seed = [&](size_t i) { return gen->RequestSeed(i); };
  rp.fans = {scfg.fanout1, scfg.fanout2};
  rp.batches = kReplayRequests;
  rp.dim = scfg.dim;
  rp.row_cache = false;
  rp.seed = args.seed;
  rp.registry = registry;
  MeasureLayers(rp, report);

  // Cost-model fit: ServeConfig prices a request as base + per_edge * edges
  // + per_row * rows, charged as compute / sample / gather. Compare each
  // term with the measured per-request layer time; error = model/measured-1.
  std::vector<double> edges, rows;
  for (size_t i = 0; i < kReplayRequests; ++i) {
    NeighborhoodSampler hood(NeighborStrategy::kUniform, gen->RequestSeed(i));
    const block::SampledBlock blk = hood.SampleBlock(
        source, gen->RootsFor(i), NeighborhoodSampler::kAllEdgeTypes, rp.fans);
    edges.push_back(static_cast<double>(BlockEdges(blk)));
    rows.push_back(static_cast<double>(blk.num_vertices()));
  }
  const auto& layers = report->layers();
  const double model_sample = scfg.per_edge_us * Median(edges);
  const double model_gather = scfg.per_row_us * Median(rows);
  const double model_compute = scfg.base_service_us;
  const double sample_us = layers.at("sampling.sample_block_us").value;
  const double gather_us = layers.at("block.gather_us").value;
  const double compute_us = layers.at("algo.forward_us").value;
  report->Extra("serve.model_error.sample", model_sample / sample_us - 1.0,
                "ratio");
  report->Extra("serve.model_error.gather", model_gather / gather_us - 1.0,
                "ratio");
  report->Extra("serve.model_error.compute", model_compute / compute_us - 1.0,
                "ratio");
}

}  // namespace perfbench
