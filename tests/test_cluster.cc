// Tests for the simulated cluster: distributed build and cache-aware neighbor
// access with communication accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "gen/powerlaw.h"
#include "gen/taobao.h"
#include "partition/partitioner.h"
#include "storage/neighbor_cache.h"

namespace aligraph {
namespace {

AttributedGraph MakeGraph() {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 1500;
  cfg.avg_degree = 6;
  cfg.seed = 9;
  return std::move(gen::ChungLu(cfg)).value();
}

TEST(ClusterBuildTest, PreservesEveryEdge) {
  const AttributedGraph g = MakeGraph();
  EdgeCutPartitioner part;
  ClusterBuildReport report;
  auto cluster = Cluster::Build(g, part, 4, &report);
  ASSERT_TRUE(cluster.ok());
  size_t total_edges = 0;
  size_t total_vertices = 0;
  for (uint32_t w = 0; w < 4; ++w) {
    total_edges += cluster->server(w).num_edges();
    total_vertices += cluster->server(w).num_vertices();
  }
  EXPECT_EQ(total_edges, g.num_edges());
  EXPECT_EQ(total_vertices, g.num_vertices());
}

TEST(ClusterBuildTest, ServersHoldOwnedAdjacency) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 3)).value();
  for (VertexId v = 0; v < g.num_vertices(); v += 37) {
    const WorkerId owner = cluster.OwnerOf(v);
    EXPECT_TRUE(cluster.server(owner).Owns(v));
    const auto local = cluster.server(owner).Neighbors(v);
    EXPECT_EQ(local.size(), g.OutDegree(v));
  }
}

TEST(ClusterBuildTest, TypedNeighborsMatchGraph) {
  auto taobao = std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  auto cluster =
      std::move(Cluster::Build(taobao, EdgeCutPartitioner(), 3)).value();
  const EdgeType click = taobao.schema().EdgeTypeId("click").value();
  for (VertexId v = 0; v < taobao.num_vertices(); v += 101) {
    const WorkerId owner = cluster.OwnerOf(v);
    EXPECT_EQ(cluster.server(owner).Neighbors(v, click).size(),
              taobao.OutDegree(v, click));
  }
}

TEST(ClusterBuildTest, ReportTimingsPopulated) {
  const AttributedGraph g = MakeGraph();
  ClusterBuildReport report;
  auto cluster = Cluster::Build(g, EdgeCutPartitioner(), 8, &report);
  ASSERT_TRUE(cluster.ok());
  EXPECT_GT(report.distribute_ms, 0.0);
  EXPECT_GT(report.serial_ms, 0.0);
  EXPECT_LE(report.simulated_parallel_ms, report.serial_ms + 1.0);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(ClusterBuildTest, RejectsZeroWorkers) {
  const AttributedGraph g = MakeGraph();
  EXPECT_FALSE(Cluster::Build(g, EdgeCutPartitioner(), 0).ok());
}

TEST(ClusterAccessTest, LocalVsRemoteCounting) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  CommStats stats;
  for (VertexId v = 0; v < 200; ++v) {
    const auto nbs = cluster.GetNeighbors(/*from=*/0, v, &stats);
    EXPECT_EQ(nbs.size(), g.OutDegree(v));
  }
  EXPECT_EQ(stats.TotalReads(), 200u);
  EXPECT_GT(stats.local_reads.load(), 0u);
  EXPECT_GT(stats.remote_reads.load(), 0u);
  EXPECT_EQ(stats.cache_hits.load(), 0u);  // no cache installed
}

TEST(ClusterAccessTest, ImportanceCacheTurnsRemoteIntoHits) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 4)).value();

  CommStats before;
  for (VertexId v = 0; v < g.num_vertices(); v += 3) {
    cluster.GetNeighbors(0, v, &before);
  }

  cluster.InstallTopImportanceCache(/*k=*/1, /*fraction=*/0.3);
  CommStats after;
  for (VertexId v = 0; v < g.num_vertices(); v += 3) {
    cluster.GetNeighbors(0, v, &after);
  }
  EXPECT_LT(after.remote_reads.load(), before.remote_reads.load());
  EXPECT_GT(after.cache_hits.load(), 0u);
}

TEST(ClusterAccessTest, CachedDataMatchesOwnerData) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 4)).value();
  cluster.InstallRandomCache(0.5, 11);
  for (VertexId v = 0; v < 300; ++v) {
    const auto got = cluster.GetNeighbors(1, v, nullptr);
    ASSERT_EQ(got.size(), g.OutDegree(v));
    const auto want = g.OutNeighbors(v);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].dst, want[i].dst);
    }
  }
}

TEST(ClusterAccessTest, ImportanceCachedVerticesReadGraphAdjacency) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 4)).value();
  cluster.InstallTopImportanceCache(/*k=*/1, /*fraction=*/0.2);
  size_t cached = 0;
  for (WorkerId w = 0; w < 4; ++w) {
    NeighborCache* cache = cluster.server(w).neighbor_cache();
    ASSERT_NE(cache, nullptr);
    std::vector<VertexId> batch;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (!cache->Lookup(v)) continue;
      ++cached;
      batch.push_back(v);
      const auto want = g.OutNeighbors(v);
      const auto got = cluster.GetNeighbors(w, v, nullptr);
      ASSERT_EQ(got.size(), want.size()) << "v=" << v;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].dst, want[i].dst);
        EXPECT_EQ(got[i].weight, want[i].weight);
        EXPECT_EQ(got[i].attr, want[i].attr);
      }
    }
    BatchResult out;
    cluster.GetNeighborsBatch(w, batch, kAllEdgeTypes, &out, nullptr);
    ASSERT_EQ(out.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const auto want = g.OutNeighbors(batch[i]);
      ASSERT_EQ(out[i].size(), want.size());
      for (size_t j = 0; j < want.size(); ++j) {
        EXPECT_EQ(out[i][j].dst, want[j].dst);
      }
    }
  }
  EXPECT_GT(cached, 0u);
}

TEST(ClusterAccessTest, LruCacheAdmitsOnRemoteFetch) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  cluster.InstallLruCache(1000);
  // Find a remote vertex from worker 0's perspective.
  VertexId remote = kInvalidVertex;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cluster.OwnerOf(v) != 0) {
      remote = v;
      break;
    }
  }
  ASSERT_NE(remote, kInvalidVertex);
  CommStats stats;
  cluster.GetNeighbors(0, remote, &stats);  // miss -> remote + admit
  cluster.GetNeighbors(0, remote, &stats);  // hit
  EXPECT_EQ(stats.remote_reads.load(), 1u);
  EXPECT_EQ(stats.cache_hits.load(), 1u);
}

TEST(ClusterAccessTest, TypedAccessCountsOnce) {
  auto taobao = std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  auto cluster =
      std::move(Cluster::Build(taobao, EdgeCutPartitioner(), 2)).value();
  const EdgeType buy = taobao.schema().EdgeTypeId("buy").value();
  CommStats stats;
  for (VertexId v = 0; v < 100; ++v) {
    cluster.GetNeighbors(0, v, buy, &stats);
  }
  EXPECT_EQ(stats.TotalReads(), 100u);
}

TEST(ClusterAccessTest, ClearCachesRestoresRemoteCounting) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  cluster.InstallRandomCache(1.0, 3);
  cluster.ClearCaches();
  CommStats stats;
  for (VertexId v = 0; v < 100; ++v) cluster.GetNeighbors(0, v, &stats);
  EXPECT_EQ(stats.cache_hits.load(), 0u);
}

TEST(CommModelTest, ModeledTimeScalesWithRemote) {
  CommModel model;
  model.remote_rpc_us = 100.0;
  model.remote_item_us = 0.0;
  model.local_latency_us = 0.0;
  CommStats stats;
  stats.remote_reads = 50;  // 50 individual reads = 50 messages
  EXPECT_NEAR(model.ModeledMillis(stats), 5.0, 1e-9);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(CommModelTest, BatchedReadsAmortizeTheMessageCost) {
  CommModel model;
  model.remote_rpc_us = 100.0;
  model.remote_item_us = 1.0;
  model.local_latency_us = 0.0;
  // 1000 reads as individual RPCs: 1000 messages + 1000 items.
  CommStats individual;
  individual.remote_reads = 1000;
  EXPECT_NEAR(model.ModeledMillis(individual), (1000 * 100.0 + 1000) * 1e-3,
              1e-9);
  // The same 1000 reads coalesced into 3 batches: 3 messages + 1000 items.
  CommStats batched;
  batched.remote_reads = 1000;
  batched.batched_remote_reads = 1000;
  batched.remote_batches = 3;
  EXPECT_NEAR(model.ModeledMillis(batched), (3 * 100.0 + 1000) * 1e-3, 1e-9);
  EXPECT_GT(model.ModeledMillis(individual),
            50 * model.ModeledMillis(batched));
}

TEST(CommStatsTest, SnapshotAndDelta) {
  CommStats stats;
  stats.local_reads = 5;
  stats.remote_reads = 7;
  const CommStats::Snapshot before = stats.snapshot();
  EXPECT_EQ(before.TotalReads(), 12u);
  stats.local_reads += 10;
  stats.cache_hits += 2;
  stats.remote_reads += 3;
  stats.remote_batches += 1;
  stats.batched_remote_reads += 3;
  const CommStats::Snapshot delta = stats.snapshot().Delta(before);
  EXPECT_EQ(delta.local_reads, 10u);
  EXPECT_EQ(delta.cache_hits, 2u);
  EXPECT_EQ(delta.remote_reads, 3u);
  EXPECT_EQ(delta.remote_batches, 1u);
  EXPECT_EQ(delta.batched_remote_reads, 3u);
  EXPECT_FALSE(delta.ToString().empty());
}

TEST(NaiveBuildTest, SlowerOrEqualToMeasuredParallelCriticalPath) {
  const AttributedGraph g = MakeGraph();
  const double naive_ms = NaiveLockedBuildMillis(g);
  EXPECT_GT(naive_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Batched neighbor reads: GetNeighborsBatch must return byte-identical data
// to per-vertex GetNeighbors on every path and coalesce its remote residue.

bool SameBytes(std::span<const Neighbor> a, std::span<const Neighbor> b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Neighbor)) == 0;
}

TEST(ClusterBatchTest, MatchesPerVertexAcrossOwnedCachedRemote) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 4)).value();
  // Random pinned cache so the batch hits all three partitions.
  cluster.InstallRandomCache(0.4, 17);
  std::vector<VertexId> batch;
  for (VertexId v = 0; v < g.num_vertices(); v += 3) batch.push_back(v);
  batch.push_back(batch.front());  // duplicate slots must resolve too

  BatchResult result;
  cluster.GetNeighborsBatch(/*from=*/1, batch, kAllEdgeTypes, &result,
                            nullptr);
  ASSERT_EQ(result.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto want = cluster.GetNeighbors(1, batch[i], nullptr);
    EXPECT_TRUE(SameBytes(result[i], want)) << "vertex " << batch[i];
  }
}

TEST(ClusterBatchTest, TypedMatchesPerVertex) {
  auto taobao = std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  auto cluster =
      std::move(Cluster::Build(taobao, EdgeCutPartitioner(), 3)).value();
  const EdgeType click = taobao.schema().EdgeTypeId("click").value();
  std::vector<VertexId> batch;
  for (VertexId v = 0; v < taobao.num_vertices(); v += 7) batch.push_back(v);
  BatchResult result;
  cluster.GetNeighborsBatch(0, batch, click, &result, nullptr);
  for (size_t i = 0; i < batch.size(); ++i) {
    const auto want = cluster.GetNeighbors(0, batch[i], click, nullptr);
    EXPECT_TRUE(SameBytes(result[i], want)) << "vertex " << batch[i];
  }
}

TEST(ClusterBatchTest, CoalescesRemoteResidueToOneRequestPerWorker) {
  const AttributedGraph g = MakeGraph();
  const uint32_t workers = 4;
  auto cluster =
      std::move(Cluster::Build(g, EdgeCutPartitioner(), workers)).value();
  std::vector<VertexId> batch(g.num_vertices());
  std::iota(batch.begin(), batch.end(), 0);

  CommStats stats;
  BatchResult result;
  cluster.GetNeighborsBatch(/*from=*/0, batch, kAllEdgeTypes, &result,
                            &stats);
  // At most one coalesced request per non-local worker, regardless of how
  // many vertices each one owns.
  EXPECT_LE(stats.remote_batches.load(), workers - 1);
  EXPECT_GT(stats.remote_batches.load(), 0u);
  // Every remote read traveled inside a batch, and the batch count is far
  // below the read count.
  EXPECT_EQ(stats.batched_remote_reads.load(), stats.remote_reads.load());
  EXPECT_GT(stats.remote_reads.load(), 50 * stats.remote_batches.load());
  EXPECT_GT(stats.local_reads.load(), 0u);
  EXPECT_EQ(stats.cache_hits.load(), 0u);
}

TEST(ClusterBatchTest, CacheHitsShortCircuitTheRemotePath) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  cluster.InstallRandomCache(1.0, 5);  // everything cached
  std::vector<VertexId> batch;
  for (VertexId v = 0; v < 300; ++v) batch.push_back(v);
  CommStats stats;
  BatchResult result;
  cluster.GetNeighborsBatch(0, batch, kAllEdgeTypes, &result, &stats);
  EXPECT_EQ(stats.remote_reads.load(), 0u);
  EXPECT_EQ(stats.remote_batches.load(), 0u);
  EXPECT_GT(stats.cache_hits.load(), 0u);
}

void ExpectSameStats(const CommStats::Snapshot& got,
                     const CommStats::Snapshot& want) {
  EXPECT_EQ(got.local_reads, want.local_reads);
  EXPECT_EQ(got.replica_reads, want.replica_reads);
  EXPECT_EQ(got.cache_hits, want.cache_hits);
  EXPECT_EQ(got.remote_reads, want.remote_reads);
  EXPECT_EQ(got.remote_batches, want.remote_batches);
  EXPECT_EQ(got.batched_remote_reads, want.batched_remote_reads);
  EXPECT_EQ(got.faults_injected, want.faults_injected);
  EXPECT_EQ(got.retry_attempts, want.retry_attempts);
  EXPECT_EQ(got.retry_backoff_us, want.retry_backoff_us);
  EXPECT_EQ(got.failed_reads, want.failed_reads);
}

/// What a batch of the slots `reads` describes must be charged, from the
/// charges of one per-vertex read per slot: owned, replica and cached slots
/// per occurrence, each unique remote vertex once, inside one request per
/// serving worker.
struct SlotCharges {
  CommStats::Snapshot want;
  std::vector<VertexId> remote_seen;
  std::vector<WorkerId> contacted;

  void Add(VertexId v, WorkerId serving, const CommStats::Snapshot& one) {
    want.local_reads += one.local_reads;
    want.replica_reads += one.replica_reads;
    want.cache_hits += one.cache_hits;
    if (one.remote_reads == 0) return;
    if (std::find(remote_seen.begin(), remote_seen.end(), v) !=
        remote_seen.end()) {
      return;
    }
    remote_seen.push_back(v);
    ++want.remote_reads;
    ++want.batched_remote_reads;
    if (std::find(contacted.begin(), contacted.end(), serving) ==
        contacted.end()) {
      contacted.push_back(serving);
      ++want.remote_batches;
    }
  }
};

// The route pass prefetches Cluster::kAhead slots ahead: batches shorter
// than, equal to and just past that distance, and one that repeats its
// vertices, must read and charge exactly what per-vertex reads do, at epoch
// 0 and at an epoch where some of their vertices have versions.
TEST(ClusterBatchTest, LookaheadEdgesMatchPerVertexReads) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 3000;
  cfg.avg_degree = 6;
  cfg.gamma = 2.1;
  cfg.directed = false;
  cfg.seed = 9;
  const AttributedGraph g = std::move(gen::ChungLu(cfg)).value();
  auto partitioner = std::move(MakePartitioner("hybrid")).value();
  auto cluster = std::move(Cluster::Build(g, *partitioner, 4)).value();
  ASSERT_TRUE(cluster.plan().HasReplicas());
  cluster.InstallTopImportanceCache(/*k=*/1, 0.1);  // pinned: order-free
  constexpr WorkerId kFrom = 0;

  // Slots that cycle through the four routes a read of worker 0 takes.
  std::vector<VertexId> by_kind[4];  // local, replica, hit, remote
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.OutDegree(v) == 0) continue;
    CommStats one;
    cluster.GetNeighbors(kFrom, v, &one);
    const int kind = one.local_reads ? 0
                     : one.replica_reads ? 1
                     : one.cache_hits    ? 2
                                         : 3;
    if (by_kind[kind].size() < Cluster::kAhead) by_kind[kind].push_back(v);
  }
  std::vector<VertexId> mixed;
  for (size_t k = 0; k < Cluster::kAhead; ++k) {
    for (const auto& kind : by_kind) {
      ASSERT_EQ(kind.size(), Cluster::kAhead);
      mixed.push_back(kind[k]);
    }
  }
  std::vector<std::vector<VertexId>> batches;
  for (const size_t n :
       {size_t{0}, size_t{1}, Cluster::kAhead - 1, Cluster::kAhead,
        Cluster::kAhead + 1}) {
    batches.emplace_back(mixed.begin(), mixed.begin() + n);
  }
  std::vector<VertexId> repeated(mixed.begin(),
                                 mixed.begin() + Cluster::kAhead + 1);
  repeated.insert(repeated.end(), mixed.rbegin() + 3 * Cluster::kAhead,
                  mixed.rend());
  batches.push_back(repeated);

  auto check = [&](uint64_t epoch) {
    for (const std::vector<VertexId>& batch : batches) {
      SCOPED_TRACE(::testing::Message() << batch.size() << " slots");
      SlotCharges neighbors, attrs;
      std::vector<std::span<const Neighbor>> want(batch.size());
      std::vector<AttrId> want_ids(batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        const VertexId v = batch[i];
        const WorkerId serving = cluster.plan().ServingWorker(v, kFrom);
        CommStats one, one_attr;
        want[i] = cluster.GetNeighbors(kFrom, v, &one, epoch);
        neighbors.Add(v, serving, one.snapshot());
        want_ids[i] = cluster.GetVertexAttr(kFrom, v, &one_attr).value();
        attrs.Add(v, serving, one_attr.snapshot());
      }

      CommStats stats;
      BatchResult out;
      ASSERT_TRUE(cluster
                      .GetNeighborsBatch(kFrom, batch, kAllEdgeTypes, &out,
                                         &stats, epoch)
                      .ok());
      ASSERT_EQ(out.size(), batch.size());
      for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(out.ok[i], 1) << "slot " << i;
        EXPECT_TRUE(SameBytes(out[i], want[i])) << "slot " << i;
      }
      ExpectSameStats(stats.snapshot(), neighbors.want);

      CommStats attr_stats;
      std::vector<AttrId> ids;
      std::vector<uint8_t> ok;
      ASSERT_TRUE(
          cluster.GetVertexAttrBatch(kFrom, batch, &ids, &attr_stats, &ok)
              .ok());
      EXPECT_EQ(ids, want_ids);
      EXPECT_EQ(ok, std::vector<uint8_t>(batch.size(), 1));
      ExpectSameStats(attr_stats.snapshot(), attrs.want);
    }
  };
  check(kEpochCurrent);

  // One insert on a vertex of each route: the cached one now bypasses the
  // cache, and every one reads its version.
  std::vector<EdgeUpdate> updates;
  for (const auto& kind : by_kind) {
    updates.push_back({EdgeUpdate::Kind::kInsert, kind[0], kind[1]});
  }
  UpdateReport report;
  ASSERT_TRUE(cluster.ApplyUpdateBatch(updates, &report).ok());
  ASSERT_EQ(report.applied, updates.size());
  EpochPin pin = cluster.PinEpoch();
  ASSERT_GT(pin.epoch(), 0u);
  for (const auto& kind : by_kind) {
    EXPECT_EQ(cluster.GetNeighbors(kFrom, kind[0], nullptr, pin.epoch()).size(),
              g.OutDegree(kind[0]) + 1);
  }
  check(pin.epoch());
}

// Under a pinned cache, the route pass picks an unreplicated, never-updated
// vertex's route with selects over its pin byte; replicated and updated
// vertices take the branching path, which also drops an updated vertex
// from the cache. Batched reads from every worker, at epoch 0 and after an
// update batch that touches pinned vertices, must return, charge and leave
// in the caches exactly what per-vertex reads of the same slots do on a
// twin cluster.
TEST(ClusterBatchTest, PinnedRouteFastPathMatchesPerVertexReads) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 3000;
  cfg.avg_degree = 6;
  cfg.gamma = 2.1;
  cfg.directed = false;
  cfg.seed = 9;
  const AttributedGraph g = std::move(gen::ChungLu(cfg)).value();
  // Every vertex in a shuffled order, then 800 repeats.
  std::vector<VertexId> batch(g.num_vertices());
  std::iota(batch.begin(), batch.end(), 0);
  Rng rng(31);
  std::shuffle(batch.begin(), batch.end(), rng);
  for (size_t i = 0; i < 800; ++i) batch.push_back(batch[i * 3]);

  for (const bool random : {false, true}) {
    SCOPED_TRACE(random ? "random cache" : "importance cache");
    auto partitioner = std::move(MakePartitioner("hybrid")).value();
    auto per_vertex = std::move(Cluster::Build(g, *partitioner, 4)).value();
    auto batched = std::move(Cluster::Build(g, *partitioner, 4)).value();
    ASSERT_TRUE(batched.plan().HasReplicas());
    for (Cluster* c : {&per_vertex, &batched}) {
      if (random) {
        c->InstallRandomCache(0.2, /*seed=*/5);
      } else {
        c->InstallTopImportanceCache(/*k=*/1, 0.2);
      }
    }

    // One batched neighbor and attribute read per worker at `epoch`
    // against per-vertex reads of the same slots; adds the cache hits to
    // `*hits`.
    auto check = [&](uint64_t epoch, uint64_t* hits) {
      for (WorkerId from = 0; from < batched.num_workers(); ++from) {
        SCOPED_TRACE(::testing::Message() << "worker " << from);
        SlotCharges neighbors, attrs;
        std::vector<uint64_t> served(batched.num_workers(), 0);
        std::vector<uint64_t> attr_served(batched.num_workers(), 0);
        std::vector<VertexId> remote_seen, attr_remote_seen;
        // Adds one per-vertex read's charges and served reads, a repeated
        // remote vertex's only once, as a batch counts it.
        auto add = [&](SlotCharges* charges, std::vector<uint64_t>* want,
                       std::vector<VertexId>* seen, VertexId v,
                       const CommStats& one,
                       const std::vector<uint64_t>& before) {
          const std::vector<uint64_t> after = per_vertex.ServedReadsSnapshot();
          WorkerId serving = from;
          for (WorkerId w = 0; w < after.size(); ++w) {
            if (after[w] != before[w]) serving = w;
          }
          charges->Add(v, serving, one.snapshot());
          if (one.remote_reads.load() != 0) {
            if (std::find(seen->begin(), seen->end(), v) != seen->end()) {
              return;
            }
            seen->push_back(v);
          }
          ++(*want)[serving];
        };
        std::vector<std::span<const Neighbor>> want(batch.size());
        std::vector<AttrId> want_ids(batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          const VertexId v = batch[i];
          CommStats one, one_attr;
          std::vector<uint64_t> before = per_vertex.ServedReadsSnapshot();
          want[i] = per_vertex.GetNeighbors(from, v, &one, epoch);
          add(&neighbors, &served, &remote_seen, v, one, before);
          before = per_vertex.ServedReadsSnapshot();
          want_ids[i] = per_vertex.GetVertexAttr(from, v, &one_attr).value();
          add(&attrs, &attr_served, &attr_remote_seen, v, one_attr, before);
        }

        batched.ResetServedReads();
        CommStats stats;
        BatchResult out;
        ASSERT_TRUE(batched
                        .GetNeighborsBatch(from, batch, kAllEdgeTypes, &out,
                                           &stats, epoch)
                        .ok());
        ASSERT_EQ(out.size(), batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          ASSERT_TRUE(SameBytes(out[i], want[i])) << "slot " << i;
        }
        ExpectSameStats(stats.snapshot(), neighbors.want);
        EXPECT_EQ(batched.ServedReadsSnapshot(), served);
        *hits += stats.cache_hits.load();

        batched.ResetServedReads();
        CommStats attr_stats;
        std::vector<AttrId> ids;
        std::vector<uint8_t> ok;
        ASSERT_TRUE(batched
                        .GetVertexAttrBatch(from, batch, &ids, &attr_stats,
                                            &ok)
                        .ok());
        EXPECT_EQ(ids, want_ids);
        ExpectSameStats(attr_stats.snapshot(), attrs.want);
        EXPECT_EQ(batched.ServedReadsSnapshot(), attr_served);

        for (WorkerId w = 0; w < batched.num_workers(); ++w) {
          const NeighborCache* a = per_vertex.server(w).neighbor_cache();
          const NeighborCache* b = batched.server(w).neighbor_cache();
          EXPECT_EQ(b->size(), a->size()) << "cache of worker " << w;
          EXPECT_EQ(b->entry_count(), a->entry_count())
              << "cache of worker " << w;
        }
      }
    };
    uint64_t hits = 0;
    check(kEpochCurrent, &hits);
    EXPECT_GT(hits, 0u);

    // Touch pinned vertices (and a few unpinned ones): their reads now
    // bypass the cache and drop them from every reading worker's cache.
    const uint8_t* pinned = batched.server(0).neighbor_cache()->pinned();
    ASSERT_NE(pinned, nullptr);
    std::vector<EdgeUpdate> updates;
    for (VertexId v = 0; v < g.num_vertices() && updates.size() < 60; ++v) {
      if (pinned[v] != 0 || v % 97 == 0) {
        updates.push_back({EdgeUpdate::Kind::kInsert, v, (v + 1) % 3000});
      }
    }
    std::vector<size_t> cached_before;
    for (WorkerId w = 0; w < batched.num_workers(); ++w) {
      cached_before.push_back(batched.server(w).neighbor_cache()->size());
    }
    for (Cluster* c : {&per_vertex, &batched}) {
      UpdateReport report;
      ASSERT_TRUE(c->ApplyUpdateBatch(updates, &report).ok());
      ASSERT_EQ(report.applied, updates.size());
    }
    EpochPin pin = batched.PinEpoch();
    EpochPin twin_pin = per_vertex.PinEpoch();
    ASSERT_EQ(pin.epoch(), twin_pin.epoch());
    hits = 0;
    check(pin.epoch(), &hits);
    EXPECT_GT(hits, 0u);
    for (WorkerId w = 0; w < batched.num_workers(); ++w) {
      EXPECT_LT(batched.server(w).neighbor_cache()->size(), cached_before[w])
          << "worker " << w << " kept a stale pin";
    }
  }
}

// ---------------------------------------------------------------------------
// Storage differential: every copy of every vertex, read through every path,
// equals the AttributedGraph CSR it was built from.

/// v's adjacency as a cluster stores it: its typed lists in type order.
std::vector<Neighbor> TypedConcat(const AttributedGraph& g, VertexId v) {
  std::vector<Neighbor> all;
  for (size_t t = 0; t < g.num_edge_types(); ++t) {
    const auto typed = g.OutNeighbors(v, static_cast<EdgeType>(t));
    all.insert(all.end(), typed.begin(), typed.end());
  }
  return all;
}

class StorageDifferentialTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(StorageDifferentialTest, EveryCopyAndReadPathEqualsTheCsr) {
  const AttributedGraph g =
      std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  ASSERT_GT(g.num_edge_types(), 1u);
  auto partitioner = std::move(MakePartitioner(GetParam())).value();
  auto cluster = std::move(Cluster::Build(g, *partitioner, 4)).value();
  const Placement& plan = cluster.plan();
  if (std::string(GetParam()) == "hybrid") {
    ASSERT_TRUE(plan.HasReplicas());
  }

  const VertexId n = g.num_vertices();
  std::vector<VertexId> all(n);
  std::iota(all.begin(), all.end(), 0);
  size_t copies = 0;
  for (WorkerId w = 0; w < 4; ++w) {
    const GraphServer& srv = cluster.server(w);
    std::vector<VertexId> held;
    for (VertexId v = 0; v < n; ++v) {
      const bool holds = plan.ServesLocally(v, w);
      ASSERT_EQ(srv.ServesCopy(v), holds) << "v=" << v << " w=" << w;
      if (!holds) continue;
      held.push_back(v);
      const std::vector<Neighbor> want = TypedConcat(g, v);
      EXPECT_TRUE(SameBytes(srv.Neighbors(v), want)) << "v=" << v;
      EXPECT_TRUE(SameBytes(cluster.GetNeighbors(w, v, nullptr), want));
      EXPECT_EQ(srv.VertexAttr(v), g.vertex_attr(v));
      for (EdgeType t = 0; t < g.num_edge_types(); ++t) {
        EXPECT_TRUE(SameBytes(srv.Neighbors(v, t), g.OutNeighbors(v, t)));
        EXPECT_TRUE(SameBytes(cluster.GetNeighbors(w, v, t, nullptr),
                              g.OutNeighbors(v, t)));
      }
    }
    copies += held.size();

    // Batched reads over the copies w holds, and over every vertex (owned,
    // replica and remote slots mixed), untyped and per type.
    for (const std::vector<VertexId>* batch : {&held, &all}) {
      BatchResult out;
      cluster.GetNeighborsBatch(w, *batch, kAllEdgeTypes, &out, nullptr);
      ASSERT_EQ(out.size(), batch->size());
      for (size_t i = 0; i < batch->size(); ++i) {
        EXPECT_TRUE(SameBytes(out[i], TypedConcat(g, (*batch)[i])))
            << "v=" << (*batch)[i] << " from=" << w;
      }
      for (EdgeType t = 0; t < g.num_edge_types(); ++t) {
        cluster.GetNeighborsBatch(w, *batch, t, &out, nullptr);
        for (size_t i = 0; i < batch->size(); ++i) {
          EXPECT_TRUE(SameBytes(out[i], g.OutNeighbors((*batch)[i], t)));
        }
      }
      std::vector<AttrId> ids;
      cluster.GetVertexAttrBatch(w, *batch, &ids, nullptr);
      ASSERT_EQ(ids.size(), batch->size());
      for (size_t i = 0; i < batch->size(); ++i) {
        EXPECT_EQ(ids[i], g.vertex_attr((*batch)[i]));
      }
    }
  }
  // Owned rows partition the vertex set; replica rows add the extra copies.
  size_t owned = 0;
  for (WorkerId w = 0; w < 4; ++w) owned += cluster.server(w).num_vertices();
  EXPECT_EQ(owned, n);
  size_t extra = 0;
  for (const auto& [v, workers] : plan.replicas) extra += workers.size();
  EXPECT_EQ(copies, n + extra);
}

INSTANTIATE_TEST_SUITE_P(
    Partitioners, StorageDifferentialTest,
    ::testing::Values("edge_cut", "vertex_cut", "hybrid"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(StorageDifferentialTest, SeventyWorkersBatchedReadsEqualPerVertexReads) {
  // Worker ids past 64: a batch's per-worker request counts and failure
  // flags must not live in a fixed-width worker mask.
  const AttributedGraph g =
      std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  auto partitioner = std::move(MakePartitioner("hybrid")).value();
  constexpr uint32_t kWorkers = 70;
  auto cluster = std::move(Cluster::Build(g, *partitioner, kWorkers)).value();
  ASSERT_TRUE(cluster.plan().HasReplicas());
  cluster.InstallRandomCache(0.2, 3);  // pinned, so read order cannot move it
  const VertexId n = g.num_vertices();
  std::vector<VertexId> all(n);
  std::iota(all.begin(), all.end(), 0);

  for (const WorkerId from : {0u, 65u, 69u}) {
    // Neighbors: one batch over every vertex vs one read per vertex.
    CommStats per_vertex;
    cluster.ResetServedReads();
    std::vector<std::span<const Neighbor>> want(n);
    for (VertexId v = 0; v < n; ++v) {
      want[v] = cluster.GetNeighbors(from, v, &per_vertex);
    }
    const std::vector<uint64_t> served = cluster.ServedReadsSnapshot();
    size_t contacted = 0;
    for (WorkerId w = 0; w < kWorkers; ++w) contacted += w != from && served[w];
    ASSERT_GT(contacted, 64u) << "from=" << from;

    CommStats batched;
    cluster.ResetServedReads();
    BatchResult out;
    cluster.GetNeighborsBatch(from, all, kAllEdgeTypes, &out, &batched);
    EXPECT_EQ(cluster.ServedReadsSnapshot(), served) << "from=" << from;
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_TRUE(SameBytes(out[v], want[v])) << "v=" << v;
    }
    const CommStats::Snapshot p = per_vertex.snapshot();
    const CommStats::Snapshot b = batched.snapshot();
    EXPECT_EQ(b.local_reads, p.local_reads);
    EXPECT_EQ(b.replica_reads, p.replica_reads);
    EXPECT_EQ(b.cache_hits, p.cache_hits);
    EXPECT_EQ(b.remote_reads, p.remote_reads);
    EXPECT_EQ(b.batched_remote_reads, p.remote_reads);
    EXPECT_EQ(b.remote_batches, contacted);

    // Attributes: the same, against the per-vertex attribute read.
    CommStats attr_per_vertex;
    cluster.ResetServedReads();
    std::vector<AttrId> want_ids(n);
    for (VertexId v = 0; v < n; ++v) {
      want_ids[v] = cluster.GetVertexAttr(from, v, &attr_per_vertex).value();
    }
    const std::vector<uint64_t> attr_served = cluster.ServedReadsSnapshot();
    CommStats attr_batched;
    cluster.ResetServedReads();
    std::vector<AttrId> ids;
    cluster.GetVertexAttrBatch(from, all, &ids, &attr_batched);
    EXPECT_EQ(ids, want_ids);
    EXPECT_EQ(cluster.ServedReadsSnapshot(), attr_served);
    const CommStats::Snapshot ap = attr_per_vertex.snapshot();
    const CommStats::Snapshot ab = attr_batched.snapshot();
    EXPECT_EQ(ab.local_reads, ap.local_reads);
    EXPECT_EQ(ab.replica_reads, ap.replica_reads);
    EXPECT_EQ(ab.remote_reads, ap.remote_reads);
    EXPECT_EQ(ab.batched_remote_reads, ap.remote_reads);
  }

  // Two dark workers, one on each side of 64: a batch fails exactly the
  // slots whose one-slot read fails.
  FaultConfig cfg;
  cfg.schedule.push_back({5, FaultKind::kTransient, 99});
  cfg.schedule.push_back({66, FaultKind::kTransient, 99});
  cluster.InstallFaultInjection(cfg);
  BatchResult out;
  EXPECT_FALSE(
      cluster.GetNeighborsBatch(0, all, kAllEdgeTypes, &out, nullptr).ok());
  std::vector<AttrId> ids;
  std::vector<uint8_t> ok;
  CommStats attr_stats;
  EXPECT_FALSE(cluster.GetVertexAttrBatch(0, all, &ids, &attr_stats, &ok).ok());
  // Without `ok` the attribute read refuses the same slots, marks them
  // kNoAttr and is charged exactly as the call that passes `ok`.
  std::vector<AttrId> ids_no_ok;
  CommStats no_ok_stats;
  EXPECT_EQ(cluster.GetVertexAttrBatch(0, all, &ids_no_ok, &no_ok_stats).code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(ids_no_ok, ids);
  ExpectSameStats(no_ok_stats.snapshot(), attr_stats.snapshot());
  EXPECT_GT(no_ok_stats.snapshot().failed_reads, 0u);
  size_t failed_at[2] = {0, 0};  // failed neighbor slots served by 5, by 66
  for (VertexId v = 0; v < n; ++v) {
    BatchResult one;
    const VertexId slot[] = {v};
    (void)cluster.GetNeighborsBatch(0, slot, kAllEdgeTypes, &one, nullptr);
    ASSERT_EQ(out.ok[v], one.ok[0]) << "v=" << v;
    EXPECT_TRUE(SameBytes(out[v], one[0])) << "v=" << v;
    const Result<AttrId> id = cluster.GetVertexAttr(0, v, nullptr);
    ASSERT_EQ(ok[v], id.ok()) << "v=" << v;
    EXPECT_EQ(ids[v], id.ok() ? id.value() : kNoAttr) << "v=" << v;
    if (out.ok[v] == 0) {
      ++failed_at[cluster.plan().ServingWorker(v, 0) == 66];
    }
  }
  EXPECT_GT(failed_at[0], 0u);
  EXPECT_GT(failed_at[1], 0u);
}

TEST(ClusterBatchTest, LruAdmitsBatchFetchedVertices) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  cluster.InstallLruCache(4096);
  std::vector<VertexId> batch;
  for (VertexId v = 0; v < 200; ++v) batch.push_back(v);
  CommStats stats;
  BatchResult result;
  cluster.GetNeighborsBatch(0, batch, kAllEdgeTypes, &result, &stats);
  const uint64_t first_remote = stats.remote_reads.load();
  EXPECT_GT(first_remote, 0u);
  // Second pass over the same batch: everything remote is now cached.
  cluster.GetNeighborsBatch(0, batch, kAllEdgeTypes, &result, &stats);
  EXPECT_EQ(stats.remote_reads.load(), first_remote);
  EXPECT_EQ(stats.cache_hits.load(), first_remote);
}

// A pinned per-vertex cache hit views the owner's storage, so the span
// outlives the LRU entry it was served from.
TEST(ClusterAccessTest, PinnedCacheHitSurvivesEviction) {
  const AttributedGraph g = MakeGraph();
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 2)).value();
  cluster.InstallLruCache(2);
  std::vector<VertexId> remote;  // three worker-1 vertices with neighbors
  for (VertexId v = 0; v < g.num_vertices() && remote.size() < 3; ++v) {
    if (cluster.OwnerOf(v) == 1 && g.OutDegree(v) > 0) remote.push_back(v);
  }
  ASSERT_EQ(remote.size(), 3u);
  const VertexId a = remote[0], b = remote[1], c = remote[2];
  CommStats stats;
  cluster.GetNeighbors(0, a, &stats);  // remote, admitted
  cluster.GetNeighbors(0, b, &stats);  // remote, admitted
  EpochPin pin = cluster.PinEpoch();
  const auto span_a = cluster.GetNeighbors(0, a, &stats, pin.epoch());
  cluster.GetNeighbors(0, b, &stats, pin.epoch());  // a is now least recent
  cluster.GetNeighbors(0, c, &stats, pin.epoch());  // admitting c evicts a
  EXPECT_EQ(stats.cache_hits.load(), 2u);
  EXPECT_EQ(stats.remote_reads.load(), 3u);
  EXPECT_TRUE(SameBytes(span_a, g.OutNeighbors(a)));
}

// The same unique vertices read one by one and in one batch are charged
// alike — per kind and per serving worker — with and without a cache.
TEST(ClusterAccessTest, BatchedAndPerVertexReadsCountAlike) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 3000;
  cfg.avg_degree = 6;
  cfg.seed = 9;
  const AttributedGraph g = std::move(gen::ChungLu(cfg)).value();
  std::vector<VertexId> batch(g.num_vertices());
  std::iota(batch.begin(), batch.end(), 0);
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "importance cache" : "no cache");
    auto partitioner = std::move(MakePartitioner("hybrid")).value();
    auto per_vertex = std::move(Cluster::Build(g, *partitioner, 4)).value();
    auto batched = std::move(Cluster::Build(g, *partitioner, 4)).value();
    ASSERT_TRUE(per_vertex.plan().HasReplicas());
    if (cached) {
      per_vertex.InstallTopImportanceCache(/*k=*/1, 0.1);
      batched.InstallTopImportanceCache(/*k=*/1, 0.1);
    }
    CommStats one, many;
    for (const VertexId v : batch) per_vertex.GetNeighbors(0, v, &one);
    BatchResult out;
    batched.GetNeighborsBatch(0, batch, kAllEdgeTypes, &out, &many);
    EXPECT_GT(one.replica_reads.load(), 0u);
    EXPECT_EQ(many.local_reads.load(), one.local_reads.load());
    EXPECT_EQ(many.replica_reads.load(), one.replica_reads.load());
    EXPECT_EQ(many.cache_hits.load(), one.cache_hits.load());
    EXPECT_EQ(many.remote_reads.load(), one.remote_reads.load());
    EXPECT_EQ(batched.ServedReadsSnapshot(), per_vertex.ServedReadsSnapshot());
    if (cached) {
      EXPECT_GT(one.cache_hits.load(), 0u);
    }
  }
}

}  // namespace
}  // namespace aligraph
