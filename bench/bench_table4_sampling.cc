/// \file bench_table4_sampling.cc
/// \brief Table 4: latency of the three optimized samplers — TRAVERSE,
/// NEIGHBORHOOD, NEGATIVE — with batch size 512 and ~20% importance cache,
/// on Taobao-small and Taobao-large (synthetic).
///
/// Reported time = measured CPU time + modeled communication time per
/// batch. The paper's claims: all samplers finish within tens of
/// milliseconds, and latency grows slowly with graph size.

#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "common/timer.h"
#include "gen/powerlaw.h"
#include "gen/taobao.h"
#include "gen/zipf.h"
#include "layout/layout.h"
#include "partition/partitioner.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

struct SamplingTimes {
  double traverse_ms = 0;
  double neighborhood_ms = 0;       ///< batched NeighborsBatch pipeline
  double neighborhood_pv_ms = 0;    ///< per-vertex comparator (one RPC/read)
  double negative_ms = 0;
  double cache_rate = 0;
  // Modeled-communication-only components: pure functions of the comm
  // counters, hence bit-stable for a fixed seed/scale. These feed the
  // regression gate (bench/baseline.json); the wall-clock metrics above
  // stay out of it.
  double neighborhood_modeled_ms = 0;
  double neighborhood_pv_modeled_ms = 0;
};

SamplingTimes RunDataset(const AttributedGraph& graph, uint32_t workers,
                         uint64_t seed) {
  auto cluster =
      std::move(Cluster::Build(graph, EdgeCutPartitioner(), workers)).value();
  SamplingTimes out;
  // ~20% cache as in the paper's setting.
  cluster.InstallTopImportanceCache(/*k=*/1, 0.2);
  out.cache_rate = 0.2;

  CommModel model;
  const size_t batch = 512;
  const int rounds = 20;

  // TRAVERSE: batch of seed vertices from one worker's partition.
  std::vector<VertexId> pool(cluster.server(0).owned_vertices());
  TraverseSampler traverse(pool, seed);
  {
    Timer t;
    for (int r = 0; r < rounds; ++r) {
      auto seeds = traverse.Sample(batch);
      if (seeds.empty()) break;
    }
    out.traverse_ms = t.ElapsedMillis() / rounds;
  }

  // NEIGHBORHOOD: 2-hop context [10, 5] for the batch, through the cluster.
  // Run the coalesced NeighborsBatch pipeline and the per-vertex comparator
  // on the same seeds; the Snapshot delta isolates each path's counters.
  {
    CommStats stats;
    DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
    PerVertexNeighborSource per_vertex(source);
    NeighborhoodSampler hood(NeighborStrategy::kUniform, seed + 1);
    const std::vector<uint32_t> fans{10, 5};
    {
      const CommStats::Snapshot before = stats.snapshot();
      Timer t;
      for (int r = 0; r < rounds; ++r) {
        auto seeds = traverse.Sample(batch);
        hood.Sample(source, seeds, NeighborhoodSampler::kAllEdgeTypes, fans);
      }
      const CommStats::Snapshot delta = stats.snapshot().Delta(before);
      out.neighborhood_ms =
          (t.ElapsedMillis() + model.ModeledMillis(delta)) / rounds;
      out.neighborhood_modeled_ms = model.ModeledMillis(delta) / rounds;
    }
    {
      const CommStats::Snapshot before = stats.snapshot();
      Timer t;
      for (int r = 0; r < rounds; ++r) {
        auto seeds = traverse.Sample(batch);
        hood.Sample(per_vertex, seeds, NeighborhoodSampler::kAllEdgeTypes,
                    fans);
      }
      const CommStats::Snapshot delta = stats.snapshot().Delta(before);
      out.neighborhood_pv_ms =
          (t.ElapsedMillis() + model.ModeledMillis(delta)) / rounds;
      out.neighborhood_pv_modeled_ms = model.ModeledMillis(delta) / rounds;
    }
  }

  // NEGATIVE: degree^0.75 noise, batch draws of 5 negatives each.
  {
    std::vector<VertexId> all(graph.num_vertices());
    std::iota(all.begin(), all.end(), 0);
    NegativeSampler negatives(graph, all, 0.75, seed + 2);
    Timer t;
    for (int r = 0; r < rounds; ++r) {
      for (size_t i = 0; i < batch; ++i) {
        negatives.Sample(5, static_cast<VertexId>(i));
      }
    }
    out.negative_ms = t.ElapsedMillis() / rounds;
  }
  return out;
}

/// One layout variant's modeled replay of the recorded gather trace.
struct ReorderCost {
  layout::LayoutPolicy policy = layout::LayoutPolicy::kIdentity;
  double modeled_us = 0;
  double hit_rate = 0;
};

struct ReorderCosts {
  ReorderCost identity, degree, bfs, hot;
  /// identity modeled cost / hot-first modeled cost — the gated
  /// `sampling.reorder_speedup` key.
  double speedup = 0;
};

/// Reorder-on/off variants of the batched root-neighborhood gather.
///
/// The study runs on a FIXED ChungLu graph (not the scale-dependent Taobao
/// sets): layout effects need the graph to dwarf the modeled cache, and at
/// smoke scale the Taobao graphs fit entirely — the gated ratio must mean
/// the same thing at every --scale. Traffic is Zipf over an ACTIVITY
/// ranking drawn independently of degree (item popularity correlates only
/// loosely with connectivity), the sampler records its reads through a
/// RecordingNeighborSource in the order it makes them, and each layout
/// replays that identical read sequence, mapped into its own id space,
/// through the LRU + stream-prefetch line model over its CSR geometry.
/// Pure function of the seed, so the speedup is bit-stable and CI can
/// gate it.
ReorderCosts RunReorder(uint64_t seed) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 20000;
  cfg.avg_degree = 3;
  cfg.seed = 42;
  const AttributedGraph graph = std::move(gen::ChungLu(cfg)).value();

  // Activity ranking: a seeded shuffle of the vertex set.
  std::vector<VertexId> activity(graph.num_vertices());
  std::iota(activity.begin(), activity.end(), 0);
  Rng arng(seed + 11);
  for (size_t i = activity.size(); i > 1; --i) {
    std::swap(activity[i - 1], activity[arng.Uniform(i)]);
  }

  gen::ZipfConfig zcfg;
  zcfg.num_ranks = graph.num_vertices();
  zcfg.exponent = 1.2;
  zcfg.seed = seed + 6;
  gen::ZipfSampler zipf(zcfg);

  LocalNeighborSource local(graph);
  layout::RecordingNeighborSource recorder(local);
  NeighborhoodSampler hood(NeighborStrategy::kUniform, seed + 5);
  const std::vector<uint32_t> fans{10};
  constexpr size_t kBatch = 512;
  constexpr int kRequests = 40;
  std::vector<VertexId> roots(kBatch);
  for (int r = 0; r < kRequests; ++r) {
    for (VertexId& v : roots) v = activity[zipf.Next()];
    hood.Sample(recorder, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  }
  const std::vector<VertexId>& trace = recorder.trace();

  // An L1-ish cache (256 lines = 16 KiB of adjacency) against a ~5600-line
  // adjacency footprint: the packed hot band fits, a scattered one cannot.
  layout::CacheModelConfig model;
  model.cache_lines = 256;

  ReorderCosts out;
  const auto run = [&](const layout::VertexLayout& lay,
                       layout::LayoutPolicy policy) {
    ReorderCost cost;
    cost.policy = policy;
    const AttributedGraph reordered =
        std::move(layout::ApplyLayout(graph, lay)).value();
    const std::vector<VertexId> replay = layout::MapToNew(lay, trace);
    const layout::ScanCost scan =
        layout::ModeledScanCost(reordered, replay, model);
    cost.modeled_us = scan.modeled_us;
    cost.hit_rate = scan.HitRate();
    return cost;
  };
  out.identity = run(layout::VertexLayout::Identity(graph.num_vertices()),
                     layout::LayoutPolicy::kIdentity);
  out.degree =
      run(layout::ComputeLayout(graph, layout::LayoutPolicy::kDegreeDescending),
          layout::LayoutPolicy::kDegreeDescending);
  out.bfs = run(layout::ComputeLayout(graph, layout::LayoutPolicy::kBfsCluster),
                layout::LayoutPolicy::kBfsCluster);
  out.hot = run(layout::ComputeHotFirstLayout(graph, activity),
                layout::LayoutPolicy::kHotFirst);
  out.speedup = out.identity.modeled_us / out.hot.modeled_us;
  return out;
}

}  // namespace
}  // namespace aligraph

int main(int argc, char** argv) {
  using namespace aligraph;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  // Attach the observability session before any Cluster is built so the
  // comm counters resolve against this registry.
  bench::ObsBench obs("table4_sampling", args);
  obs.report().AddMeta("experiment", "Table 4 sampling latency");
  bench::Banner(
      "Table 4 — sampling latency (batch = 512, ~20% cache)",
      "TRAVERSE a few ms, NEIGHBORHOOD tens of ms, NEGATIVE a few ms; "
      "batched neighbor reads amortize the per-RPC latency the per-vertex "
      "path pays on every remote read");

  obs.Table("sampling_latency",
            {"dataset", "workers", "TRAVERSE", "NBHD batched",
             "NBHD per-vertex", "NEGATIVE"});
  {
    auto g = std::move(gen::Taobao(gen::TaobaoSmallConfig(args.scale))).value();
    const auto t = RunDataset(g, 4, args.seed);
    obs.TableRow({"Taobao-small (syn)", "4", bench::Ms(t.traverse_ms),
                  bench::Ms(t.neighborhood_ms),
                  bench::Ms(t.neighborhood_pv_ms), bench::Ms(t.negative_ms)});
    obs.report().AddMetric("taobao_small.traverse_ms", t.traverse_ms);
    obs.report().AddMetric("taobao_small.neighborhood_ms", t.neighborhood_ms);
    obs.report().AddMetric("taobao_small.neighborhood_per_vertex_ms",
                           t.neighborhood_pv_ms);
    obs.report().AddMetric("taobao_small.negative_ms", t.negative_ms);
    obs.report().AddMetric("taobao_small.neighborhood_modeled_ms",
                           t.neighborhood_modeled_ms);
    obs.report().AddMetric("taobao_small.neighborhood_per_vertex_modeled_ms",
                           t.neighborhood_pv_modeled_ms);

  }
  {
    auto g = std::move(gen::Taobao(gen::TaobaoLargeConfig(args.scale))).value();
    const auto t = RunDataset(g, 8, args.seed);
    obs.TableRow({"Taobao-large (syn)", "8", bench::Ms(t.traverse_ms),
                  bench::Ms(t.neighborhood_ms),
                  bench::Ms(t.neighborhood_pv_ms), bench::Ms(t.negative_ms)});
    obs.report().AddMetric("taobao_large.traverse_ms", t.traverse_ms);
    obs.report().AddMetric("taobao_large.neighborhood_ms", t.neighborhood_ms);
    obs.report().AddMetric("taobao_large.neighborhood_per_vertex_ms",
                           t.neighborhood_pv_ms);
    obs.report().AddMetric("taobao_large.negative_ms", t.negative_ms);
    obs.report().AddMetric("taobao_large.neighborhood_modeled_ms",
                           t.neighborhood_modeled_ms);
    obs.report().AddMetric("taobao_large.neighborhood_per_vertex_modeled_ms",
                           t.neighborhood_pv_modeled_ms);
  }
  {
    // Reorder-on/off variants: same recorded gather trace, replayed through
    // the cache-line model under each layout (fixed study graph — see
    // RunReorder). Modeled, hence deterministic —
    // `sampling.reorder_speedup` feeds the regression gate.
    const ReorderCosts rc = RunReorder(args.seed);
    obs.Table("reorder_locality",
              {"layout", "modeled scan", "hit rate", "vs identity"});
    const auto row = [&obs, &rc](const ReorderCost& c) {
      char hit[32], rel[32];
      std::snprintf(hit, sizeof(hit), "%.1f%%", c.hit_rate * 100.0);
      std::snprintf(rel, sizeof(rel), "%.2fx",
                    rc.identity.modeled_us / c.modeled_us);
      obs.TableRow({layout::PolicyName(c.policy),
                    bench::Ms(c.modeled_us / 1000.0), hit, rel});
    };
    row(rc.identity);
    row(rc.degree);
    row(rc.bfs);
    row(rc.hot);
    obs.report().AddMetric("sampling.reorder_speedup", rc.speedup);
    obs.report().AddMetric("sampling.reorder_hit_rate.identity",
                           rc.identity.hit_rate);
    obs.report().AddMetric("sampling.reorder_hit_rate.degree_descending",
                           rc.degree.hit_rate);
    obs.report().AddMetric("sampling.reorder_hit_rate.bfs_cluster",
                           rc.bfs.hit_rate);
    obs.report().AddMetric("sampling.reorder_hit_rate.hot_first",
                           rc.hot.hit_rate);
  }
  obs.WriteReport();
  return 0;
}
