// Fault-tolerance experiment: modeled cost and degradation of k-hop
// NEIGHBORHOOD sampling under increasingly hostile fault schedules.
//
// Each row runs the same seeded sampling workload against the same cluster
// with a different FaultConfig: none, a probabilistic transient mix, a
// timeout-heavy mix, and a full blackout of one worker. The workload is a
// fixed 64 SampleBlock mini-batches of 8 roots at every --scale, so each
// scenario judges a few hundred coalesced messages (one per contacted
// worker per hop of each mini-batch), not a handful. Columns report the
// modeled sampling time (retry messages + backoff included), the retry and
// degradation counters, and the failure count — showing that recovery is
// paid for in modeled milliseconds, never in aborted samples.

#include <span>
#include <string>
#include <vector>

#include "bench_util.h"
#include "block/sampled_block.h"
#include "cluster/cluster.h"
#include "fault/fault_injector.h"
#include "gen/powerlaw.h"
#include "partition/partitioner.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

struct Scenario {
  std::string name;
  FaultConfig config;
};

std::vector<Scenario> MakeScenarios(uint64_t seed, uint32_t workers) {
  std::vector<Scenario> scenarios;
  scenarios.push_back({"none", FaultConfig{}});

  FaultConfig transient;
  transient.seed = seed;
  transient.transient_prob = 0.2;
  scenarios.push_back({"transient20", transient});

  FaultConfig timeouts;
  timeouts.seed = seed;
  timeouts.timeout_prob = 0.15;
  timeouts.slow_prob = 0.15;
  scenarios.push_back({"timeout_slow30", timeouts});

  FaultConfig blackout;
  blackout.seed = seed;
  blackout.transient_prob = 0.1;
  blackout.schedule.push_back(
      {workers - 1, FaultKind::kTransient, /*fail_first_attempts=*/99});
  scenarios.push_back({"blackout_w3", blackout});
  return scenarios;
}

}  // namespace
}  // namespace aligraph

int main(int argc, char** argv) {
  using namespace aligraph;
  const bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::Banner("Fault tolerance: k-hop sampling under injected failures",
                "retries + degradation keep sampling complete and "
                "deterministic; faults cost modeled time, not aborts");
  bench::ObsBench obs("fault_tolerance", args);

  gen::ChungLuConfig gcfg;
  gcfg.num_vertices =
      static_cast<VertexId>(20000 * args.scale);
  gcfg.avg_degree = 8;
  gcfg.seed = args.seed;
  const AttributedGraph graph = std::move(gen::ChungLu(gcfg)).value();

  const uint32_t workers = 4;
  auto cluster =
      std::move(Cluster::Build(graph, EdgeCutPartitioner(), workers)).value();
  CommModel model;

  constexpr size_t kMiniBatches = 64;
  constexpr size_t kRootsPerBatch = 8;
  std::vector<VertexId> roots;
  Rng root_rng(args.seed ^ 0x5007u);
  for (size_t i = 0; i < kMiniBatches * kRootsPerBatch; ++i) {
    roots.push_back(
        static_cast<VertexId>(root_rng.Uniform(graph.num_vertices())));
  }
  const std::vector<uint32_t> fans = {10, 5};

  obs.Table("fault_tolerance",
            {"schedule", "modeled_ms", "faults", "retries", "backoff_ms",
             "failed_reads", "degraded", "partial"});

  for (const auto& scenario : MakeScenarios(args.seed, workers)) {
    if (scenario.config.Active()) {
      cluster.InstallFaultInjection(scenario.config);
    } else {
      cluster.ClearFaultInjection();
    }
    CommStats stats;
    DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
    NeighborhoodSampler sampler(NeighborStrategy::kUniform, args.seed);
    uint64_t degraded = 0;
    bool partial = false;
    for (size_t b = 0; b < kMiniBatches; ++b) {
      const std::span<const VertexId> batch(
          roots.data() + b * kRootsPerBatch, kRootsPerBatch);
      const block::SampledBlock blk = sampler.SampleBlock(
          source, batch, NeighborhoodSampler::kAllEdgeTypes, fans);
      degraded += blk.degraded_draws();
      partial = partial || blk.partial();
    }

    const CommStats::Snapshot s = stats.snapshot();
    const double modeled_ms = model.ModeledMillis(stats);
    obs.TableRow({scenario.name, bench::Fmt("%.2f", modeled_ms),
                  std::to_string(s.faults_injected),
                  std::to_string(s.retry_attempts),
                  bench::Fmt("%.2f", s.retry_backoff_us / 1000.0),
                  std::to_string(s.failed_reads),
                  std::to_string(degraded), partial ? "yes" : "no"});
    s.ExportTo(obs.registry(), "fault." + scenario.name);
    obs.report().AddMetric("fault." + scenario.name + ".modeled_ms",
                           modeled_ms);
    obs.report().AddMetric("fault." + scenario.name + ".degraded",
                           static_cast<double>(degraded));
  }

  obs.WriteReport();
  return 0;
}
