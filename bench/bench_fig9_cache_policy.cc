/// \file bench_fig9_cache_policy.cc
/// \brief Figure 9: neighborhood-access cost vs. fraction of cached
/// vertices for the three cache strategies — AliGraph's importance-based
/// cache, a random pinned cache, and reactive LRU.
///
/// Workload: a fixed sequence of 2-hop neighborhood expansions issued from
/// random workers. Cost = measured CPU time + modeled communication time
/// (each individual remote fetch is one message: charged
/// CommModel::remote_rpc_us + remote_item_us); the paper's 40-60% savings
/// come from the remote-fetch counts, which this simulation reproduces
/// exactly.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "common/timer.h"
#include "gen/taobao.h"
#include "partition/partitioner.h"

namespace aligraph {
namespace {

// One pass of the query workload; returns modeled total time in ms and
// exports the pass's communication counts as "<prefix>.<field>".
double RunWorkload(Cluster& cluster, const CommModel& model, uint64_t seed,
                   obs::MetricsRegistry& registry, const std::string& prefix) {
  Rng rng(seed);
  CommStats stats;
  const CommStats::Snapshot before = stats.snapshot();
  Timer timer;
  const VertexId n = cluster.graph().num_vertices();
  const uint32_t workers = cluster.num_workers();
  for (int q = 0; q < 20000; ++q) {
    const WorkerId from = static_cast<WorkerId>(rng.Uniform(workers));
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    const auto nbs = cluster.GetNeighbors(from, v, &stats);
    // Expand one sampled second hop, as NEIGHBORHOOD sampling does.
    if (!nbs.empty()) {
      const VertexId u = nbs[rng.Uniform(nbs.size())].dst;
      cluster.GetNeighbors(from, u, &stats);
    }
  }
  const double cpu_ms = timer.ElapsedMillis();
  const CommStats::Snapshot delta = stats.snapshot().Delta(before);
  delta.ExportTo(registry, prefix);
  return cpu_ms + model.ModeledMillis(delta);
}

}  // namespace
}  // namespace aligraph

int main(int argc, char** argv) {
  using namespace aligraph;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::ObsBench obs("fig9_cache_policy", args);
  obs.report().AddMeta("experiment", "Figure 9 cache policy comparison");
  bench::Banner(
      "Figure 9 — access cost w.r.t. percentage of cached vertices",
      "importance cache saves ~40-50% vs random and ~50-60% vs LRU");

  auto graph = std::move(gen::Taobao(gen::TaobaoSmallConfig(args.scale))).value();
  auto cluster =
      std::move(Cluster::Build(graph, EdgeCutPartitioner(), 4)).value();
  CommModel model;

  std::printf("dataset: %s, 4 workers, 20k 2-hop queries\n\n",
              graph.ToString().c_str());
  obs.report().AddMeta("dataset", graph.ToString());
  obs.Table("cache_policy",
            {"cached (%)", "importance (ms)", "random (ms)", "LRU (ms)"});
  for (double fraction : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    cluster.ClearCaches();
    const std::string key = bench::Fmt("fraction_%.1f", fraction);
    const std::string counts = "fig9." + key;
    double importance_ms, random_ms, lru_ms;
    if (fraction == 0.0) {
      importance_ms = random_ms = lru_ms =
          RunWorkload(cluster, model, 99, obs.registry(), counts + ".none");
    } else {
      cluster.InstallTopImportanceCache(/*k=*/1, fraction);
      importance_ms = RunWorkload(cluster, model, 99, obs.registry(),
                                  counts + ".importance");
      cluster.InstallRandomCache(fraction, /*seed=*/7);
      random_ms =
          RunWorkload(cluster, model, 99, obs.registry(), counts + ".random");
      cluster.InstallLruCache(
          static_cast<size_t>(fraction * graph.num_vertices()));
      lru_ms = RunWorkload(cluster, model, 99, obs.registry(), counts + ".lru");
    }
    obs.TableRow({bench::Pct(fraction), bench::Fmt("%.1f", importance_ms),
                  bench::Fmt("%.1f", random_ms), bench::Fmt("%.1f", lru_ms)});
    obs.report().AddMetric(key + ".importance_ms", importance_ms);
    obs.report().AddMetric(key + ".random_ms", random_ms);
    obs.report().AddMetric(key + ".lru_ms", lru_ms);
  }
  obs.WriteReport();
  return 0;
}
