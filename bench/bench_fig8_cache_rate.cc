/// \file bench_fig8_cache_rate.cc
/// \brief Figure 8: percentage of vertices cached vs. the importance
/// threshold tau (k = 2, 1-hop neighbors always cached as in the paper's
/// setup). The curve drops steeply at small tau and flattens — the
/// power-law consequence of Theorem 2.
///
/// The sweep also reports the modeled communication time of a 2-hop
/// NEIGHBORHOOD workload at each threshold, for the coalesced
/// NeighborsBatch path vs. the per-vertex comparator: caching shrinks the
/// remote residue, batching amortizes the per-RPC latency of whatever
/// residue remains — the two optimizations compose.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "gen/taobao.h"
#include "partition/partitioner.h"
#include "sampling/sampler.h"
#include "storage/importance.h"

namespace aligraph {
namespace {

struct CommCosts {
  double batched_ms = 0;
  double per_vertex_ms = 0;
  CommStats::Snapshot batched_delta;
  CommStats::Snapshot per_vertex_delta;
};

// One 2-hop NEIGHBORHOOD round (batch 256, fan-out 8x4) from worker 0,
// modeled through both read paths.
CommCosts ModeledWorkload(Cluster& cluster, uint64_t seed) {
  CommModel model;
  CommStats stats;
  DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
  PerVertexNeighborSource per_vertex(source);
  TraverseSampler traverse(
      std::vector<VertexId>(cluster.server(0).owned_vertices()), seed);
  NeighborhoodSampler hood(NeighborStrategy::kUniform, seed + 1);
  const std::vector<uint32_t> fans{8, 4};
  const auto seeds = traverse.Sample(256);

  CommCosts costs;
  CommStats::Snapshot before = stats.snapshot();
  hood.Sample(source, seeds, NeighborhoodSampler::kAllEdgeTypes, fans);
  costs.batched_delta = stats.snapshot().Delta(before);
  costs.batched_ms = model.ModeledMillis(costs.batched_delta);

  before = stats.snapshot();
  hood.Sample(per_vertex, seeds, NeighborhoodSampler::kAllEdgeTypes, fans);
  costs.per_vertex_delta = stats.snapshot().Delta(before);
  costs.per_vertex_ms = model.ModeledMillis(costs.per_vertex_delta);
  return costs;
}

}  // namespace
}  // namespace aligraph

int main(int argc, char** argv) {
  using namespace aligraph;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::ObsBench obs("fig8_cache_rate", args);
  obs.report().AddMeta("experiment", "Figure 8 cache rate vs threshold");
  bench::Banner("Figure 8 — cache rate w.r.t. importance threshold",
                "cache rate decreases with threshold, steeply below ~0.2, "
                "then stabilizes; ~20% extra vertices cached at the chosen "
                "threshold; batched reads amortize the residual remote cost");

  auto graph = std::move(gen::Taobao(gen::TaobaoSmallConfig(args.scale))).value();
  std::printf("dataset: %s\n\n", graph.ToString().c_str());
  obs.report().AddMeta("dataset", graph.ToString());

  auto cluster =
      std::move(Cluster::Build(graph, EdgeCutPartitioner(), 4)).value();

  obs.Table("cache_rate", {"threshold", "cached vertices (%)",
                           "comm batched (ms)", "comm per-vertex (ms)"});
  for (double tau :
       {0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45}) {
    const double rate = CacheRateAtThreshold(graph, /*k=*/2, tau);
    cluster.InstallImportanceCache(/*depth=*/2, {tau, tau});
    const auto costs = ModeledWorkload(cluster, args.seed);
    obs.TableRow({bench::Fmt("%.2f", tau), bench::Pct(rate),
                  bench::Ms(costs.batched_ms),
                  bench::Ms(costs.per_vertex_ms)});
    const std::string key = bench::Fmt("tau_%.2f", tau);
    obs.report().AddMetric(key + ".cache_rate", rate);
    obs.report().AddMetric(key + ".comm_batched_ms", costs.batched_ms);
    obs.report().AddMetric(key + ".comm_per_vertex_ms", costs.per_vertex_ms);
    // Persist the per-path comm deltas at the paper's operating point so
    // the report shows WHY batching wins (messages, batched reads).
    if (tau == 0.20) {
      costs.batched_delta.ExportTo(obs.registry(), "fig8.tau020.batched");
      costs.per_vertex_delta.ExportTo(obs.registry(),
                                      "fig8.tau020.per_vertex");
    }
  }
  obs.WriteReport();
  return 0;
}
