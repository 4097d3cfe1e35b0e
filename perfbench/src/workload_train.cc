/// \file workload_train.cc
/// \brief train_ooc: GraphSAGE training (SageTrainer::TrainEpochs,
/// pipeline depth 2) on a 1.25M-vertex, 10M-edge ChungLu graph with 32-d
/// features, about 3x a 100 MB last-level cache. One client thread.
///
/// TrainEpochs runs a fixed 24-batch chunk per call; after one untimed
/// warm-up chunk, chunks repeat until the run's seconds are spent.
/// throughput_per_s is the median chunk's positive training edges per
/// second. p50_us / p99_us are over the intervals between consecutive batch
/// completions inside a chunk, timed by polling the pipeline.batches
/// counter of the attached registry. All three are scaled to nominal host
/// speed by the samples taken between chunks (see HostSpeed).

#include <atomic>
#include <memory>
#include <numeric>
#include <thread>

#include "algo/embedding_algorithm.h"
#include "algo/gnn.h"
#include "gen/powerlaw.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace aligraph;

constexpr VertexId kVertices = 1250000;
constexpr double kAvgDegree = 8.0;  // 10M edges
constexpr size_t kFeatureDim = 32;
constexpr size_t kBatch = 512;
constexpr size_t kChunkBatches = 24;
constexpr uint32_t kNegatives = 2;
constexpr int kSetupReps = 3;
constexpr size_t kReplayBatches = 10;

algo::GnnConfig TrainConfig(uint64_t seed, size_t depth) {
  algo::GnnConfig cfg;
  cfg.dim = 32;
  cfg.feature_dim = kFeatureDim;
  cfg.fanout1 = 10;
  cfg.fanout2 = 5;
  cfg.batch_size = kBatch;
  cfg.batches_per_epoch = kChunkBatches;
  cfg.negatives = kNegatives;
  cfg.aggregator = "mean";
  cfg.seed = seed;
  cfg.pipeline_depth = depth;
  return cfg;
}

AttributedGraph MakeGraph(VertexId n, uint64_t seed) {
  gen::ChungLuConfig g;
  g.num_vertices = n;
  g.avg_degree = kAvgDegree;
  g.seed = seed;
  return std::move(gen::ChungLu(g)).value();
}

/// Same-seed training at depth 0 and depth 2 on a small probe graph must
/// give bit-identical Infer embeddings.
void CheckDepthIdentity(uint64_t seed, Report* report) {
  const AttributedGraph g = MakeGraph(2000, seed + 101);
  const nn::Matrix x = algo::BuildFeatureMatrix(g, kFeatureDim);
  uint64_t fp[2] = {0, 0};
  const size_t depths[2] = {0, 2};
  for (int i = 0; i < 2; ++i) {
    algo::GnnConfig cfg = TrainConfig(seed, depths[i]);
    cfg.batch_size = 64;
    cfg.batches_per_epoch = 8;
    algo::SageTrainer trainer(cfg, kFeatureDim);
    trainer.TrainEpochs(g, x, 2);
    fp[i] = Fingerprint(trainer.Infer(g, x));
  }
  std::printf("train.infer_fingerprint = %016llx (depth 0) %016llx (depth 2)\n",
              static_cast<unsigned long long>(fp[0]),
              static_cast<unsigned long long>(fp[1]));
  report->Check(fp[0] == fp[1], "train depth 0 vs depth 2 Infer fingerprint");
}

}  // namespace

void RunTrainOoc(const Args& args, obs::MetricsRegistry* registry,
                 Report* report) {
  const algo::GnnConfig cfg = TrainConfig(args.seed, /*depth=*/2);
  std::unique_ptr<AttributedGraph> graph;
  nn::Matrix features;
  std::unique_ptr<algo::SageTrainer> trainer;
  HostSpeed speed;
  TimeSetup(kSetupReps, &speed, report, [&] {
    trainer.reset();
    features = nn::Matrix();
    graph.reset();
    obs::ScopedSpan s("setup");
    graph = std::make_unique<AttributedGraph>(MakeGraph(kVertices, args.seed));
    features = algo::BuildFeatureMatrix(*graph, kFeatureDim);
    trainer = std::make_unique<algo::SageTrainer>(cfg, kFeatureDim);
  });
  std::printf("graph: %u vertices, %zu edges\n", graph->num_vertices(),
              graph->num_edges());

  {
    obs::ScopedSpan s("train/warmup");
    trainer->TrainEpochs(*graph, features, 1);
  }

  // Completion timestamps of every timed batch, polled off the registry.
  obs::Counter* batches = registry->GetCounter("pipeline.batches");
  const uint64_t base = batches->Value();
  std::vector<int64_t> done_ns;
  std::atomic<bool> stop{false};
  std::thread poller([&] {
    uint64_t seen = base;
    while (true) {
      const bool last = stop.load();
      const uint64_t v = batches->Value();
      const int64_t now = NowNanos();
      for (; seen < v; ++seen) done_ns.push_back(now);
      if (last) break;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  // The host speed is sampled between chunks, when TrainEpochs' lanes are
  // gone and only the poller (asleep nearly all the time) is left.
  const obs::MetricsSnapshot before = registry->Snapshot();
  std::vector<double> chunk_rate;
  std::vector<int64_t> chunk_ns;  ///< start, then end of every chunk
  double busy_us = 0;
  const double t_begin = NowSeconds();
  speed.Sample();
  while (chunk_rate.size() < 3 || NowSeconds() - t_begin < args.seconds) {
    {
      obs::ScopedSpan s("train/chunk");
      const int64_t t0 = NowNanos();
      trainer->TrainEpochs(*graph, features, 1);
      chunk_ns.push_back(t0);
      chunk_ns.push_back(NowNanos());
      const double dt = static_cast<double>(chunk_ns.back() - t0);
      busy_us += dt * 1e-3;
      chunk_rate.push_back(static_cast<double>(kChunkBatches * kBatch) /
                           (dt * 1e-9));
    }
    speed.Sample();
  }
  stop.store(true);
  poller.join();
  const obs::MetricsSnapshot after = registry->Snapshot();

  const size_t timed = chunk_rate.size() * kChunkBatches;
  report->Attempt(timed);
  if (done_ns.size() != timed) {
    report->Fail(timed > done_ns.size() ? timed - done_ns.size() : 1,
                 "pipeline.batches disagrees with the batches run");
  }
  // Intervals between consecutive completions inside one chunk: the
  // steady-state batch time. A chunk's first batch also pays TrainEpochs'
  // per-call set-up and the pipeline fill; that cost is in the chunk's
  // edges/s instead.
  std::vector<double> interval_us, scaled_interval_us, scaled_rate;
  std::vector<double> chunk_speed;
  for (size_t c = 0; c < chunk_rate.size(); ++c) {
    chunk_speed.push_back(speed.Around(chunk_ns[2 * c], chunk_ns[2 * c + 1]));
    scaled_rate.push_back(ScaleRate(chunk_rate[c], chunk_speed.back()));
  }
  for (size_t k = 0; k < done_ns.size() && k < timed; ++k) {
    if (k % kChunkBatches == 0) continue;
    interval_us.push_back(static_cast<double>(done_ns[k] - done_ns[k - 1]) *
                          1e-3);
    scaled_interval_us.push_back(
        ScaleLatency(interval_us.back(), chunk_speed[k / kChunkBatches]));
  }
  std::printf("train chunk edges/s:");
  for (double r : chunk_rate) std::printf(" %.0f", r);
  std::printf("\n");
  const double edges_per_s = Median(chunk_rate);
  ReportScaled(report,
               {Median(scaled_rate), Percentile(scaled_interval_us, 50),
                Percentile(scaled_interval_us, 99)},
               {edges_per_s, Percentile(interval_us, 50),
                Percentile(interval_us, 99)},
               speed.Median());
  report->Extra("train.edges_per_s", edges_per_s, "1/s");
  report->Extra("train.batches", static_cast<double>(timed), "count");
  ReportPipelineShares(before, after, busy_us, report);

  CheckDepthIdentity(args.seed, report);

  if (args.trace) {
    // Replays batches shaped like TrainEpochs': B positive edges (u, v)
    // with u uniform and v a uniform out-neighbor, plus k negatives each.
    std::vector<VertexId> all(graph->num_vertices());
    std::iota(all.begin(), all.end(), 0);
    NegativeSampler negatives(*graph, all, 0.75, args.seed + 2);
    Rng rng(args.seed + 5);
    LocalNeighborSource source(*graph);
    block::MatrixFeatureSource feature_source(features);
    LayerReplay rp;
    rp.graph = graph.get();
    rp.source = &source;
    rp.features = &feature_source;
    rp.roots = [&](size_t) {
      std::vector<VertexId> roots;
      while (roots.size() < kBatch * (2 + kNegatives)) {
        const VertexId u = all[rng.Uniform(all.size())];
        const auto nbs = graph->OutNeighbors(u);
        if (nbs.empty()) continue;
        const VertexId v = nbs[rng.Uniform(nbs.size())].dst;
        roots.push_back(u);
        roots.push_back(v);
        for (VertexId ng : negatives.Sample(kNegatives, v)) {
          roots.push_back(ng);
        }
      }
      return roots;
    };
    rp.sampler_seed = [&](size_t i) { return Mix64(args.seed * 977 + i); };
    rp.fans = {cfg.fanout1, cfg.fanout2};
    rp.batches = kReplayBatches;
    rp.dim = cfg.dim;
    rp.row_cache = true;
    rp.seed = args.seed;
    rp.registry = registry;
    MeasureLayers(rp, report);
  }
}

}  // namespace perfbench
