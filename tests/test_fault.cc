// Tests for deterministic fault injection, the retry layer in the cluster
// read paths, and graceful degradation in the samplers. The differential
// suites are the contract: with faults disabled every path is bit-identical
// to the uninjected cluster; with a seeded schedule, recovery is exact and
// reproducible.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "fault/fault_injector.h"
#include "fault/retry_policy.h"
#include "gen/powerlaw.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "proptest.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

AttributedGraph MakeGraph(uint64_t seed = 9) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 1200;
  cfg.avg_degree = 6;
  cfg.seed = seed;
  return std::move(gen::ChungLu(cfg)).value();
}

bool SameBytes(std::span<const Neighbor> a, std::span<const Neighbor> b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Neighbor)) == 0;
}

// One-slot batch read of v's adjacency, judged by the injector: one remote
// message when v is not local to `from`.
Status ReadOne(Cluster& cluster, WorkerId from, VertexId v, CommStats* stats,
               BatchResult* out) {
  const VertexId batch[] = {v};
  return cluster.GetNeighborsBatch(from, batch, kAllEdgeTypes, out, stats);
}

// A config where every attempt draws the transient probability.
FaultConfig TransientConfig(uint64_t seed, double p) {
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.transient_prob = p;
  return cfg;
}

// A schedule where worker `w` fails its first `n` attempts with `kind`.
FaultConfig ScheduleConfig(uint64_t seed, WorkerId w, FaultKind kind,
                           uint32_t n) {
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.schedule.push_back({w, kind, n});
  return cfg;
}

// ---------------------------------------------------------------------------
// FaultInjector: pure-function determinism.

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  const FaultConfig cfg = TransientConfig(/*seed=*/42, /*p=*/0.3);
  FaultInjector a(cfg);
  FaultInjector b(cfg);
  uint64_t faulted = 0;
  for (uint64_t key = 0; key < 500; ++key) {
    for (uint32_t attempt = 1; attempt <= 3; ++attempt) {
      const FaultDecision da = a.Decide(0, 1, Mix64(key), attempt);
      const FaultDecision db = b.Decide(0, 1, Mix64(key), attempt);
      EXPECT_EQ(da.kind, db.kind);
      EXPECT_EQ(da.latency_us, db.latency_us);
      faulted += da.kind != FaultKind::kNone;
    }
  }
  EXPECT_GT(faulted, 0u);
}

TEST(FaultInjectorTest, DifferentSeedsDisagreeSomewhere) {
  FaultInjector a(TransientConfig(1, 0.5));
  FaultInjector b(TransientConfig(2, 0.5));
  bool diverged = false;
  for (uint64_t key = 0; key < 200 && !diverged; ++key) {
    diverged = a.Decide(0, 1, Mix64(key), 1).kind !=
               b.Decide(0, 1, Mix64(key), 1).kind;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, ProbabilityRoughlyMatchesConfig) {
  FaultInjector inj(TransientConfig(7, 0.25));
  uint64_t faults = 0;
  const uint64_t trials = 20000;
  for (uint64_t key = 0; key < trials; ++key) {
    faults += inj.Decide(0, 1, Mix64(key), 1).kind == FaultKind::kTransient;
  }
  const double rate = static_cast<double>(faults) / trials;
  EXPECT_NEAR(rate, 0.25, 0.02);
}

TEST(FaultInjectorTest, ScheduleFailsExactlyFirstAttempts) {
  FaultInjector inj(ScheduleConfig(3, /*w=*/1, FaultKind::kTimeout, 2));
  EXPECT_EQ(inj.Decide(0, 1, 99, 1).kind, FaultKind::kTimeout);
  EXPECT_EQ(inj.Decide(0, 1, 99, 2).kind, FaultKind::kTimeout);
  EXPECT_EQ(inj.Decide(0, 1, 99, 3).kind, FaultKind::kNone);
  // Other workers are untouched (no probabilities configured).
  EXPECT_EQ(inj.Decide(0, 2, 99, 1).kind, FaultKind::kNone);
}

TEST(FaultInjectorTest, TimeoutAndSlowCarryLatency) {
  FaultConfig cfg = ScheduleConfig(3, 0, FaultKind::kTimeout, 1);
  cfg.timeout_us = 777.0;
  FaultInjector inj(cfg);
  const FaultDecision d = inj.Decide(1, 0, 5, 1);
  EXPECT_FALSE(d.Succeeds());
  EXPECT_EQ(d.latency_us, 777.0);

  FaultConfig slow_cfg = ScheduleConfig(3, 0, FaultKind::kSlow, 1);
  slow_cfg.slow_latency_us = 333.0;
  FaultInjector slow(slow_cfg);
  const FaultDecision s = slow.Decide(1, 0, 5, 1);
  EXPECT_TRUE(s.Succeeds());  // slow still delivers
  EXPECT_EQ(s.latency_us, 333.0);
}

TEST(FaultInjectorTest, InactiveConfigInjectsNothing) {
  FaultInjector inj(FaultConfig{});
  EXPECT_FALSE(inj.enabled());
  uint64_t faulted = 0;
  for (uint64_t key = 0; key < 100; ++key) {
    faulted += inj.Decide(0, 1, key, 1).kind != FaultKind::kNone;
  }
  EXPECT_EQ(faulted, 0u);
}

// ---------------------------------------------------------------------------
// RetryPolicy: decorrelated jitter stays in its envelope.

TEST(RetryPolicyTest, BackoffBoundedAndCapped) {
  RetryPolicy policy;
  policy.base_backoff_us = 100.0;
  policy.max_backoff_us = 1000.0;
  Rng rng(5);
  double prev = policy.base_backoff_us;
  for (int i = 0; i < 200; ++i) {
    const double next = policy.NextBackoffUs(prev, rng);
    EXPECT_GE(next, policy.base_backoff_us);
    EXPECT_LE(next, policy.max_backoff_us);
    prev = next;
  }
}

TEST(RetryPolicyTest, SameSeedSameSchedule) {
  RetryPolicy policy;
  Rng a(11), b(11);
  double pa = policy.base_backoff_us, pb = policy.base_backoff_us;
  for (int i = 0; i < 50; ++i) {
    pa = policy.NextBackoffUs(pa, a);
    pb = policy.NextBackoffUs(pb, b);
    EXPECT_EQ(pa, pb);
  }
}

// ---------------------------------------------------------------------------
// Cluster retry layer.

TEST(ClusterFaultTest, RetryRecoversFromScheduledTransient) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  // Every request to worker 1 fails its first attempt; default policy has
  // 4 attempts, so the retry always recovers.
  cluster.InstallFaultInjection(
      ScheduleConfig(21, /*w=*/1, FaultKind::kTransient, 1));

  CommStats stats;
  size_t remote_tried = 0;
  for (VertexId v = 0; v < 300; ++v) {
    if (cluster.OwnerOf(v) != 1) continue;
    ++remote_tried;
    BatchResult out;
    const Status st = ReadOne(cluster, /*from=*/0, v, &stats, &out);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(out.ok[0], 1);
    EXPECT_TRUE(SameBytes(out[0], g.OutNeighbors(v)));
  }
  ASSERT_GT(remote_tried, 0u);
  EXPECT_EQ(stats.failed_reads.load(), 0u);
  EXPECT_EQ(stats.faults_injected.load(), remote_tried);
  EXPECT_EQ(stats.retry_attempts.load(), remote_tried);
  EXPECT_GT(stats.retry_backoff_us.load(), 0u);
}

TEST(ClusterFaultTest, ExhaustedRetriesReturnUnavailable) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  // Worker 1 fails more attempts than the policy allows: permanent failure.
  RetryPolicy policy;
  policy.max_attempts = 3;
  cluster.InstallFaultInjection(
      ScheduleConfig(22, /*w=*/1, FaultKind::kTransient, 99), policy);

  CommStats stats;
  VertexId remote = kInvalidVertex;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cluster.OwnerOf(v) == 1) {
      remote = v;
      break;
    }
  }
  ASSERT_NE(remote, kInvalidVertex);
  BatchResult out;
  const Status st = ReadOne(cluster, 0, remote, &stats, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ(out.ok[0], 0);
  EXPECT_TRUE(out[0].empty());
  EXPECT_EQ(stats.failed_reads.load(), 1u);
  EXPECT_EQ(stats.retry_attempts.load(), policy.max_attempts - 1);
  // Local reads never fail even under a total-blackout schedule.
  VertexId local = kInvalidVertex;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cluster.OwnerOf(v) == 0) {
      local = v;
      break;
    }
  }
  ASSERT_NE(local, kInvalidVertex);
  EXPECT_TRUE(ReadOne(cluster, 0, local, &stats, &out).ok());
  EXPECT_EQ(out.ok[0], 1);
  EXPECT_TRUE(SameBytes(out[0], g.OutNeighbors(local)));
  EXPECT_EQ(stats.failed_reads.load(), 1u);
}

TEST(ClusterFaultTest, DeadlineStopsRetriesEarly) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  // Timeouts burn 1000us each; a 1500us deadline admits the first attempt
  // and at most one retry even though the policy would allow 10.
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.deadline_us = 1500.0;
  FaultConfig cfg = ScheduleConfig(23, /*w=*/1, FaultKind::kTimeout, 99);
  cfg.timeout_us = 1000.0;
  cluster.InstallFaultInjection(cfg, policy);

  CommStats stats;
  VertexId remote = kInvalidVertex;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cluster.OwnerOf(v) == 1) {
      remote = v;
      break;
    }
  }
  ASSERT_NE(remote, kInvalidVertex);
  BatchResult out;
  EXPECT_FALSE(ReadOne(cluster, 0, remote, &stats, &out).ok());
  EXPECT_LT(stats.retry_attempts.load(), 2u);
}

TEST(ClusterFaultTest, TryAttrReadRetriesLikeNeighborRead) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  cluster.InstallFaultInjection(
      ScheduleConfig(24, /*w=*/1, FaultKind::kTransient, 1));
  CommStats stats;
  for (VertexId v = 0; v < 100; ++v) {
    if (cluster.OwnerOf(v) != 1) continue;
    auto r = cluster.GetVertexAttr(0, v, &stats);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, g.vertex_attr(v));
  }
  EXPECT_GT(stats.retry_attempts.load(), 0u);
}

TEST(ClusterFaultTest, ClearFaultInjectionRestoresInfallibility) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  cluster.InstallFaultInjection(
      ScheduleConfig(25, /*w=*/1, FaultKind::kTransient, 99));
  cluster.ClearFaultInjection();
  EXPECT_FALSE(cluster.fault_injection_enabled());
  CommStats stats;
  BatchResult out;
  for (VertexId v = 0; v < 200; ++v) {
    EXPECT_TRUE(ReadOne(cluster, 0, v, &stats, &out).ok());
    EXPECT_EQ(out.ok[0], 1);
  }
  EXPECT_EQ(stats.faults_injected.load(), 0u);
  EXPECT_EQ(stats.retry_attempts.load(), 0u);
}

TEST(ClusterFaultTest, ModeledTimeGrowsWithRetryCharges) {
  CommModel model;
  CommStats plain;
  plain.remote_reads = 100;
  CommStats faulted;
  faulted.remote_reads = 100;
  faulted.retry_attempts = 30;       // 30 extra messages
  faulted.retry_backoff_us = 5000;   // plus 5ms of modeled backoff
  faulted.failed_reads = 2;
  EXPECT_GT(model.ModeledMillis(faulted), model.ModeledMillis(plain));
}

// ---------------------------------------------------------------------------
// Differential: with faults disabled, every read path and the samplers are
// bit-identical to a cluster that never saw an injector.

TEST(FaultDifferentialTest, InactiveInjectorIsBitIdenticalToBaseline) {
  const AttributedGraph g = MakeGraph();
  auto baseline =
      std::move(Cluster::Build(g, EdgeCutPartitioner(), 3)).value();
  auto injected =
      std::move(Cluster::Build(g, EdgeCutPartitioner(), 3)).value();
  // Installed but inactive: all probabilities zero, no schedule.
  injected.InstallFaultInjection(FaultConfig{});
  EXPECT_FALSE(injected.fault_injection_enabled());

  std::vector<VertexId> batch;
  for (VertexId v = 0; v < g.num_vertices(); v += 2) batch.push_back(v);

  CommStats base_stats, inj_stats;
  BatchResult base_out, inj_out;
  baseline.GetNeighborsBatch(0, batch, kAllEdgeTypes, &base_out, &base_stats);
  ASSERT_TRUE(injected
                  .GetNeighborsBatch(0, batch, kAllEdgeTypes, &inj_out,
                                     &inj_stats)
                  .ok());
  ASSERT_EQ(base_out.size(), inj_out.size());
  for (size_t i = 0; i < base_out.size(); ++i) {
    EXPECT_EQ(inj_out.ok[i], 1);
    EXPECT_TRUE(SameBytes(base_out[i], inj_out[i]));
  }
  // Identical accounting: no retry/fault counter may move.
  const CommStats::Snapshot a = base_stats.snapshot();
  const CommStats::Snapshot b = inj_stats.snapshot();
  EXPECT_EQ(a.remote_reads, b.remote_reads);
  EXPECT_EQ(a.remote_batches, b.remote_batches);
  EXPECT_EQ(b.faults_injected, 0u);
  EXPECT_EQ(b.retry_attempts, 0u);
  EXPECT_EQ(b.retry_backoff_us, 0u);
  EXPECT_EQ(b.failed_reads, 0u);
}

TEST(FaultDifferentialTest, SamplerOutputUnchangedWithFaultsDisabled) {
  const AttributedGraph g = MakeGraph();
  auto baseline =
      std::move(Cluster::Build(g, EdgeCutPartitioner(), 3)).value();
  auto injected =
      std::move(Cluster::Build(g, EdgeCutPartitioner(), 3)).value();
  injected.InstallFaultInjection(FaultConfig{});

  std::vector<VertexId> roots;
  for (VertexId v = 0; v < 64; ++v) roots.push_back(v * 7);
  const std::vector<uint32_t> fans = {5, 3};

  CommStats sa, sb;
  DistributedNeighborSource src_a(baseline, 0, &sa);
  DistributedNeighborSource src_b(injected, 0, &sb);
  NeighborhoodSampler sampler_a(NeighborStrategy::kUniform, /*seed=*/77);
  NeighborhoodSampler sampler_b(NeighborStrategy::kUniform, /*seed=*/77);
  const NeighborhoodSample a = sampler_a.Sample(src_a, roots, kAllEdgeTypes,
                                                fans);
  const NeighborhoodSample b = sampler_b.Sample(src_b, roots, kAllEdgeTypes,
                                                fans);
  ASSERT_EQ(a.hops.size(), b.hops.size());
  for (size_t h = 0; h < a.hops.size(); ++h) {
    EXPECT_EQ(a.hops[h], b.hops[h]) << "hop " << h;
  }
  EXPECT_FALSE(b.partial);
  EXPECT_EQ(b.degraded_draws, 0u);
  EXPECT_EQ(sa.snapshot().TotalReads(), sb.snapshot().TotalReads());
}

// Under every fault schedule, successful batch slots carry the same bytes
// as the infallible per-vertex read — retries must never corrupt payloads.
ALIGRAPH_PROP(FaultDifferentialProps, BatchPayloadsMatchPerVertex, 6) {
  const AttributedGraph g = proptest::RandomGraph(ctx);
  const uint32_t workers = proptest::RandomWorkers(ctx);
  auto cluster =
      std::move(Cluster::Build(g, EdgeCutPartitioner(), workers)).value();

  std::vector<FaultConfig> schedules;
  schedules.push_back(FaultConfig{});  // none
  schedules.push_back(TransientConfig(ctx.rng.Next(), 0.3));
  FaultConfig timeout_heavy;  // every worker times out its first attempt
  timeout_heavy.seed = ctx.rng.Next();
  for (WorkerId w = 0; w < workers; ++w) {
    timeout_heavy.schedule.push_back({w, FaultKind::kTimeout, 1});
  }
  schedules.push_back(timeout_heavy);

  std::vector<VertexId> batch;
  for (VertexId v = 0; v < g.num_vertices(); v += 3) batch.push_back(v);

  for (const FaultConfig& cfg : schedules) {
    if (cfg.Active()) {
      RetryPolicy policy;
      policy.max_attempts = 2;  // tight budget so some requests DO fail
      cluster.InstallFaultInjection(cfg, policy);
    } else {
      cluster.ClearFaultInjection();
    }
    BatchResult out;
    const Status st =
        cluster.GetNeighborsBatch(0, batch, kAllEdgeTypes, &out, nullptr);
    ASSERT_EQ(out.size(), batch.size());
    if (!cfg.Active()) {
      EXPECT_TRUE(st.ok());
      EXPECT_EQ(out.FailedSlots(), 0u);
    } else if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kUnavailable);
      EXPECT_GT(out.FailedSlots(), 0u);
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      if (out.ok[i] == 0) {
        EXPECT_TRUE(out[i].empty());
        continue;
      }
      EXPECT_TRUE(SameBytes(out[i], g.OutNeighbors(batch[i])))
          << "vertex " << batch[i];
    }
    // One-slot fallible reads obey the same payload contract.
    for (size_t i = 0; i < batch.size(); i += 17) {
      BatchResult one;
      if (ReadOne(cluster, 0, batch[i], nullptr, &one).ok()) {
        EXPECT_EQ(one.ok[0], 1);
        EXPECT_TRUE(SameBytes(one[0], g.OutNeighbors(batch[i])));
      } else {
        EXPECT_EQ(one.ok[0], 0);
        EXPECT_TRUE(one[0].empty());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sampler degradation.

TEST(SamplerDegradationTest, KHopCompletesUnderBlackoutWorker) {
  const AttributedGraph g = MakeGraph();
  auto cluster =
      std::move(Cluster::Build(g, EdgeCutPartitioner(), 3)).value();
  // Worker 1 never answers; worker 2 fails once then recovers. Sampling
  // from worker 0 must still produce full-shaped hops with zero aborts.
  FaultConfig cfg;
  cfg.seed = 31;
  cfg.schedule.push_back({1, FaultKind::kTransient, 99});
  cfg.schedule.push_back({2, FaultKind::kTransient, 1});
  RetryPolicy policy;
  policy.max_attempts = 3;
  cluster.InstallFaultInjection(cfg, policy);

  std::vector<VertexId> roots;
  for (VertexId v = 0; v < 96; ++v) roots.push_back(v * 11);
  const std::vector<uint32_t> fans = {4, 3};

  CommStats stats;
  DistributedNeighborSource source(cluster, 0, &stats);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, /*seed=*/5);
  const NeighborhoodSample sample =
      sampler.Sample(source, roots, kAllEdgeTypes, fans);

  ASSERT_EQ(sample.hops.size(), 2u);
  EXPECT_EQ(sample.hops[0].size(), roots.size() * 4);
  EXPECT_EQ(sample.hops[1].size(), roots.size() * 4 * 3);
  EXPECT_TRUE(sample.partial);
  EXPECT_GT(sample.degraded_draws, 0u);
  EXPECT_GT(stats.retry_attempts.load(), 0u);
  EXPECT_GT(stats.failed_reads.load(), 0u);
}

TEST(SamplerDegradationTest, StaleCacheServesPreviouslyFetchedNeighbors) {
  const AttributedGraph g = MakeGraph();
  auto cluster =
      std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  std::vector<VertexId> roots;
  for (VertexId v = 0; v < 64; ++v) roots.push_back(v);
  const std::vector<uint32_t> fans = {4};

  CommStats stats;
  DistributedNeighborSource source(cluster, 0, &stats);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, /*seed=*/5);

  // First pass: faults active but recoverable, so every span is fetched
  // and admitted into the sampler's stale cache.
  cluster.InstallFaultInjection(
      ScheduleConfig(32, /*w=*/1, FaultKind::kTransient, 1));
  (void)sampler.Sample(source, roots, kAllEdgeTypes, fans);
  EXPECT_GT(sampler.stale_cache_size(), 0u);

  // Second pass: worker 1 blacks out entirely. Degraded slots now serve
  // the stale copies, so hop shapes and payload-bearing draws survive.
  cluster.InstallFaultInjection(
      ScheduleConfig(32, /*w=*/1, FaultKind::kTransient, 99));
  const NeighborhoodSample degraded =
      sampler.Sample(source, roots, kAllEdgeTypes, fans);
  EXPECT_TRUE(degraded.partial);
  EXPECT_GT(degraded.degraded_draws, 0u);
  EXPECT_EQ(degraded.hops[0].size(), roots.size() * 4);
}

TEST(SamplerDegradationTest, TraverseEdgesSurviveFaults) {
  const AttributedGraph g = MakeGraph();
  auto cluster =
      std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  cluster.InstallFaultInjection(TransientConfig(33, 0.4));

  std::vector<VertexId> pool;
  for (VertexId v = 0; v < g.num_vertices(); ++v) pool.push_back(v);
  CommStats stats;
  DistributedNeighborSource source(cluster, 0, &stats);
  TraverseSampler traverse(pool, /*seed=*/6);
  const auto edges = traverse.SampleEdges(source, kAllEdgeTypes, 64);
  EXPECT_EQ(edges.size(), 64u);
  for (const auto& [src, nb] : edges) {
    bool found = false;
    for (const Neighbor& cand : g.OutNeighbors(src)) {
      found = found || (cand.dst == nb.dst && cand.weight == nb.weight);
    }
    EXPECT_TRUE(found) << "edge from " << src << " not in the graph";
  }
}

// ---------------------------------------------------------------------------
// Acceptance: a full k-hop run under a seeded schedule completes with zero
// aborts, moves the retry/degradation counters, and replays identically.

std::map<std::string, uint64_t> RunSeededFaultSweep(uint64_t seed,
                                                    obs::MetricsRegistry* reg) {
  obs::SetDefault(reg);
  const AttributedGraph g = MakeGraph(seed);
  auto cluster =
      std::move(Cluster::Build(g, EdgeCutPartitioner(), 3)).value();
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.transient_prob = 0.2;
  cfg.timeout_prob = 0.1;
  cfg.schedule.push_back({1, FaultKind::kTransient, 99});  // blackout
  RetryPolicy policy;
  policy.max_attempts = 3;
  cluster.InstallFaultInjection(cfg, policy);

  std::vector<VertexId> roots;
  for (VertexId v = 0; v < 80; ++v) roots.push_back(v * 13);
  const std::vector<uint32_t> fans = {4, 3};
  CommStats stats;
  DistributedNeighborSource source(cluster, 0, &stats);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, seed);
  const NeighborhoodSample sample =
      sampler.Sample(source, roots, kAllEdgeTypes, fans);
  EXPECT_EQ(sample.hops[1].size(), roots.size() * 4 * 3);  // zero aborts
  EXPECT_TRUE(sample.partial);

  // The fault counts live in CommStats; the registry holds the sampler's
  // degradation counter. Export one beside the other to compare whole runs.
  stats.snapshot().ExportTo(*reg, "comm");
  std::map<std::string, uint64_t> counters = reg->Snapshot().counters;
  obs::SetDefault(nullptr);
  return counters;
}

TEST(FaultAcceptanceTest, SeededRunMovesCountersAndReplaysExactly) {
  obs::MetricsRegistry reg1;
  const auto run1 = RunSeededFaultSweep(97, &reg1);
  ASSERT_GT(run1.at("comm.faults_injected"), 0u);
  ASSERT_GT(run1.at("comm.retry_attempts"), 0u);
  ASSERT_GT(run1.at("comm.retry_backoff_us"), 0u);
  ASSERT_GT(run1.at("degraded.samples"), 0u);
  ASSERT_GT(run1.at("comm.failed_reads"), 0u);

  obs::MetricsRegistry reg2;
  const auto run2 = RunSeededFaultSweep(97, &reg2);
  EXPECT_EQ(run1, run2) << "same seed must replay the same counters";

  obs::MetricsRegistry reg3;
  const auto run3 = RunSeededFaultSweep(98, &reg3);
  EXPECT_NE(run1, run3)
      << "different seeds should not produce the exact same fault run";
}

}  // namespace
}  // namespace aligraph
