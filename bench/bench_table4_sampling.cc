/// \file bench_table4_sampling.cc
/// \brief Table 4: latency of the three optimized samplers — TRAVERSE,
/// NEIGHBORHOOD, NEGATIVE — with batch size 512 and ~20% importance cache,
/// on Taobao-small and Taobao-large (synthetic).
///
/// Reported time = measured CPU time + modeled communication time per
/// batch. The paper's claims: all samplers finish within tens of
/// milliseconds, and latency grows slowly with graph size.

#include <numeric>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/timer.h"
#include "gen/taobao.h"
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
  obs.WriteReport();
  return 0;
}
