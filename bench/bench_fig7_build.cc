/// \file bench_fig7_build.cc
/// \brief Figure 7: graph-building time vs. number of workers on
/// Taobao-small and Taobao-large (synthetic), plus the PowerGraph-style
/// naive serial loader as the order-of-magnitude comparator.
///
/// Simulated parallel time = partition + distribute/p + slowest worker
/// (critical path); see cluster.h for the simulation contract.
///
/// The second half is the skew sweep behind the `partition.hot_server_speedup`
/// gate: Zipf-over-degree-rank traffic against a Chung-Lu power-law graph,
/// served under edge_cut / vertex_cut / hybrid placement. Replicating the hub
/// head (hybrid) spreads hub reads over every worker, so the hottest server's
/// served-read count — the quantity that bounds throughput on a skewed
/// workload — drops by the gated factor relative to hash edge-cut.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "gen/powerlaw.h"
#include "gen/taobao.h"
#include "gen/zipf.h"
#include "partition/partitioner.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

void RunDataset(bench::ObsBench& obs, const char* name,
                const gen::TaobaoConfig& config) {
  auto graph = std::move(gen::Taobao(config)).value();
  std::printf("\n%s: %s\n", name, graph.ToString().c_str());

  // The serial comparator mimics a synchronously coordinated loader: the
  // measured locked build plus a modeled 1 us/edge coordination round (the
  // cross-machine synchronization a serial distributed ingest pays per
  // edge; AliGraph's streaming partition-parallel ingest avoids it). This
  // coordination model is what turns "minutes" into "hours" at the paper's
  // 6.8B-edge scale.
  const double kCoordinationUsPerEdge = 1.0;
  const double naive_ms = NaiveLockedBuildMillis(graph) +
                          graph.num_edges() * kCoordinationUsPerEdge * 1e-3;
  std::printf("naive serial loader (measured + modeled %.1f us/edge "
              "coordination): %.1f ms\n",
              kCoordinationUsPerEdge, naive_ms);

  obs.Table(name, {"workers", "parallel build (ms)", "speedup vs naive",
                   "edge cut"});
  EdgeCutPartitioner partitioner;
  for (uint32_t workers : {1u, 2u, 4u, 8u, 16u, 25u}) {
    ClusterBuildReport report;
    auto cluster = Cluster::Build(graph, partitioner, workers, &report);
    if (!cluster.ok()) continue;
    obs.TableRow(
        {std::to_string(workers),
         bench::Fmt("%.1f", report.simulated_parallel_ms),
         bench::Fmt("%.1fx", naive_ms / report.simulated_parallel_ms),
         bench::Fmt("%.3f", report.partition_stats.edge_cut_fraction)});
  }
}

/// Hot-server skew sweep. Traffic is the hostile case for source-owner
/// placement: sampling roots drawn Zipf(1.1) over degree rank, so the
/// power-law head absorbs most reads, and 2-hop expansion keeps the interior
/// degree-biased too (neighbors are degree-proportional endpoints). Reported per policy: modeled hot share (from
/// ComputePartitionStats' traffic model) and the measured per-worker
/// served-read counters; the gate compares the max (hottest server).
void RunSkewSweep(bench::ObsBench& obs, const bench::BenchArgs& args) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = static_cast<VertexId>(
      std::max(4000.0, 100000.0 * args.scale));
  cfg.avg_degree = 8;
  cfg.gamma = 2.1;
  // Undirected: a vertex's storage degree (what makes it a hub worth
  // replicating) and its read traffic (how often sampling lands on it) are
  // the same quantity, as in the paper's e-commerce graphs.
  cfg.directed = false;
  cfg.seed = args.seed;
  auto graph = std::move(gen::ChungLu(cfg)).value();
  const uint32_t kWorkers = 8;
  std::printf("\nskew sweep: %s, %u workers, Zipf(1.1) roots over "
              "degree rank\n",
              graph.ToString().c_str(), kWorkers);

  // rank r -> the vertex with the r-th largest out-degree (stable on ties).
  std::vector<VertexId> by_degree(graph.num_vertices());
  std::iota(by_degree.begin(), by_degree.end(), VertexId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](VertexId a, VertexId b) {
                     return graph.OutDegree(a) > graph.OutDegree(b);
                   });

  gen::ZipfConfig zcfg;
  zcfg.num_ranks = graph.num_vertices();
  zcfg.exponent = 1.1;
  zcfg.seed = args.seed;

  obs.Table("skew_sweep",
            {"policy", "edge cut", "repl factor", "modeled hot share",
             "max served", "mean served", "memory (MB)"});
  double hot_share_edge_cut = 0;
  double hot_share_hybrid = 0;
  double max_served_edge_cut = 0;
  double max_served_hybrid = 0;
  // Per-worker served-read rows, collected during the sweep but emitted as
  // a report table only after the skew_sweep table is complete (AddRow
  // appends to the last table added).
  std::vector<std::vector<std::string>> served_rows;
  for (const char* name : {"edge_cut", "vertex_cut", "hybrid"}) {
    auto partitioner = std::move(MakePartitioner(name)).value();
    ClusterBuildReport report;
    auto built = Cluster::Build(graph, *partitioner, kWorkers, &report);
    if (!built.ok()) continue;
    Cluster& cluster = *built;

    // Every worker originates the same Zipf traffic (uniform readers over
    // skewed vertices); 2-hop batched sampling is the serving workload.
    gen::ZipfSampler zipf(zcfg);
    Rng rng(args.seed);
    NeighborhoodSampler hood(NeighborStrategy::kUniform, 5);
    const std::vector<uint32_t> fans{10, 5};
    std::vector<size_t> ranks(256);
    for (int round = 0; round < 24; ++round) {
      const WorkerId from = static_cast<WorkerId>(round % kWorkers);
      zipf.SampleBatch(rng, ranks);
      std::vector<VertexId> roots(ranks.size());
      for (size_t i = 0; i < ranks.size(); ++i) roots[i] = by_degree[ranks[i]];
      CommStats stats;
      DistributedNeighborSource source(cluster, from, &stats);
      hood.Sample(source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
    }

    const std::vector<uint64_t> served = cluster.ServedReadsSnapshot();
    const uint64_t max_served =
        *std::max_element(served.begin(), served.end());
    const uint64_t total_served =
        std::accumulate(served.begin(), served.end(), uint64_t{0});
    const double mean_served =
        static_cast<double>(total_served) / served.size();
    for (size_t w = 0; w < served.size(); ++w) {
      served_rows.push_back(
          {name, std::to_string(w), std::to_string(served[w]),
           bench::Fmt("%.4f", total_served > 0
                                  ? static_cast<double>(served[w]) /
                                        static_cast<double>(total_served)
                                  : 0.0)});
    }
    if (std::string(name) == "edge_cut") {
      hot_share_edge_cut = report.partition_stats.hot_server_share;
      max_served_edge_cut = static_cast<double>(max_served);
    } else if (std::string(name) == "hybrid") {
      hot_share_hybrid = report.partition_stats.hot_server_share;
      max_served_hybrid = static_cast<double>(max_served);
    }
    obs.TableRow(
        {name, bench::Fmt("%.3f", report.partition_stats.edge_cut_fraction),
         bench::Fmt("%.2f", report.partition_stats.replication_factor),
         bench::Fmt("%.3f", report.partition_stats.hot_server_share),
         std::to_string(max_served), bench::Fmt("%.0f", mean_served),
         bench::Fmt("%.1f", [&] {
           size_t bytes = 0;
           for (uint32_t w = 0; w < kWorkers; ++w) {
             bytes += cluster.server(w).MemoryBytes();
           }
           return bytes / (1024.0 * 1024.0);
         }())});
  }

  // The full per-worker distribution behind the max/mean columns: which
  // worker the hub traffic actually lands on, per placement policy.
  obs.report().AddTable("served_reads_per_worker",
                        {"policy", "worker", "served_reads", "share"});
  for (const auto& row : served_rows) obs.report().AddRow(row);

  // The gated headline: how much hotter the hottest server runs under plain
  // hash edge-cut than under hub replication, on the degree-proportional
  // traffic model (ComputePartitionStats). The measured ratio from the
  // sampling workload is printed alongside as a directional cross-check
  // only: batched reads deduplicate each remote hub to one read per batch,
  // and a reader's own local, replica and cache-hit slots count for the
  // reader, so replicated hub reads land on whichever worker samples.
  if (hot_share_hybrid > 0 && max_served_hybrid > 0) {
    const double modeled = hot_share_edge_cut / hot_share_hybrid;
    const double measured = max_served_edge_cut / max_served_hybrid;
    std::printf("\nhot-server speedup (edge_cut / hybrid): modeled %.2fx, "
                "measured (batch-deduped) %.2fx\n",
                modeled, measured);
    obs.report().AddMetric("partition.hot_server_speedup", modeled);
    obs.report().AddMetric("partition.hot_server_speedup_measured", measured);
  }
}

}  // namespace
}  // namespace aligraph

int main(int argc, char** argv) {
  using namespace aligraph;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::ObsBench obs("fig7_build", args);
  bench::Banner(
      "Figure 7 — graph building time w.r.t. number of workers",
      "build time decreases with workers; minutes, not hours "
      "(order of magnitude over the naive serial loader); hub replication "
      "flattens the hot server under skewed traffic");
  RunDataset(obs, "Taobao-small (synthetic)",
             gen::TaobaoSmallConfig(args.scale));
  RunDataset(obs, "Taobao-large (synthetic)",
             gen::TaobaoLargeConfig(args.scale));
  RunSkewSweep(obs, args);
  obs.WriteReport();
  return 0;
}
