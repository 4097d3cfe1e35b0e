// Tests for replica-aware placement and epoch-consistent online updates:
// bit-identical serving from any replica, update visibility and pinned-epoch
// isolation, cache invalidation under updates, version reclamation, the
// no-replica/no-update differential against the legacy read paths, and a
// sanitizer stress interleaving ApplyUpdateBatch with pinned k-hop reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "algo/gnn.h"
#include "block/feature_source.h"
#include "block/sampled_block.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "gen/powerlaw.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "partition/partitioner.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

// Undirected power law: degree hubs exist, so the hybrid partitioner
// actually replicates a head.
AttributedGraph MakeSkewGraph(uint64_t seed = 11) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 900;
  cfg.avg_degree = 6;
  cfg.gamma = 2.1;
  cfg.directed = false;
  cfg.seed = seed;
  return std::move(gen::ChungLu(cfg)).value();
}

// Tiny deterministic graph for update semantics: 6 vertices, two edge
// types, known adjacency.
AttributedGraph MakeTinyGraph() {
  GraphSchema schema;
  schema.AddEdgeType("a");
  schema.AddEdgeType("b");
  GraphBuilder gb(std::move(schema));
  for (int i = 0; i < 6; ++i) gb.AddVertex();
  EXPECT_TRUE(gb.AddEdge(0, 1, 0, 1.0f).ok());
  EXPECT_TRUE(gb.AddEdge(0, 2, 0, 2.0f).ok());
  EXPECT_TRUE(gb.AddEdge(0, 3, 1, 3.0f).ok());
  EXPECT_TRUE(gb.AddEdge(1, 2, 0, 1.0f).ok());
  EXPECT_TRUE(gb.AddEdge(4, 5, 1, 1.0f).ok());
  return std::move(gb.Build()).value();
}

bool SameNeighbors(std::span<const Neighbor> a, std::span<const Neighbor> b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].dst != b[i].dst || a[i].weight != b[i].weight ||
        a[i].attr != b[i].attr) {
      return false;
    }
  }
  return true;
}

Cluster BuildWith(const AttributedGraph& g, const char* partitioner,
                  uint32_t workers) {
  auto p = std::move(MakePartitioner(partitioner)).value();
  return std::move(Cluster::Build(g, *p, workers)).value();
}

// ---------------------------------------------------------------------------
// Replica-aware serving

TEST(ReplicaServingTest, HybridPlanReplicatesHubs) {
  const AttributedGraph g = MakeSkewGraph();
  auto plan =
      std::move(HybridSkewPartitioner().Partition(g, 4)).value();
  EXPECT_TRUE(plan.HasReplicas());
  EXPECT_GT(plan.ReplicationFactor(), 1.0);
  EXPECT_LE(plan.ReplicationFactor(), 4.0);
}

TEST(ReplicaServingTest, EveryWorkerServesBitIdenticalReads) {
  const AttributedGraph g = MakeSkewGraph();
  Cluster cluster = BuildWith(g, "hybrid", 4);
  ASSERT_TRUE(cluster.plan().HasReplicas());
  CommStats stats;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto expected = g.OutNeighbors(v);
    for (WorkerId from = 0; from < 4; ++from) {
      EXPECT_TRUE(SameNeighbors(cluster.GetNeighbors(from, v, &stats),
                                expected))
          << "v=" << v << " from=" << from;
    }
  }
  // Replicated hubs were actually served from replica copies somewhere.
  EXPECT_GT(stats.replica_reads.load(), 0u);
}

TEST(ReplicaServingTest, BatchedReadsMatchScalarFromEveryWorker) {
  const AttributedGraph g = MakeSkewGraph();
  Cluster cluster = BuildWith(g, "hybrid", 4);
  std::vector<VertexId> batch;
  for (VertexId v = 0; v < g.num_vertices(); v += 3) batch.push_back(v);
  for (WorkerId from = 0; from < 4; ++from) {
    CommStats stats;
    BatchResult out;
    cluster.GetNeighborsBatch(from, batch, kAllEdgeTypes, &out, &stats);
    ASSERT_EQ(out.spans.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(SameNeighbors(out.spans[i], g.OutNeighbors(batch[i])))
          << "v=" << batch[i] << " from=" << from;
    }
  }
}

TEST(ReplicaServingTest, ReplicaReadsSpreadServedLoad) {
  const AttributedGraph g = MakeSkewGraph();
  Cluster cluster = BuildWith(g, "hybrid", 4);
  // Find a replicated hub and read it from every worker: each read must be
  // served by the reading worker itself (owner or replica copy), never a
  // third party.
  VertexId hub = kInvalidVertex;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!cluster.plan().ReplicasOf(v).empty()) {
      hub = v;
      break;
    }
  }
  ASSERT_NE(hub, kInvalidVertex);
  cluster.ResetServedReads();
  CommStats stats;
  for (WorkerId from = 0; from < 4; ++from) {
    cluster.GetNeighbors(from, hub, &stats);
  }
  const auto served = cluster.ServedReadsSnapshot();
  for (uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(served[w], 1u) << "worker " << w;
  }
  EXPECT_EQ(stats.remote_reads.load(), 0u);
}

// ---------------------------------------------------------------------------
// Online updates

TEST(UpdateTest, InsertAndRemoveBecomeVisibleAtNewEpoch) {
  const AttributedGraph g = MakeTinyGraph();
  Cluster cluster = BuildWith(g, "edge_cut", 2);
  EXPECT_FALSE(cluster.versioned());
  EXPECT_EQ(cluster.current_epoch(), 0u);

  std::vector<EdgeUpdate> batch;
  batch.push_back({EdgeUpdate::Kind::kInsert, 0, 4, 0, 9.0f, kNoAttr});
  batch.push_back({EdgeUpdate::Kind::kRemove, 0, 1, 0, 0, kNoAttr});
  UpdateReport report;
  ASSERT_TRUE(cluster.ApplyUpdateBatch(batch, &report).ok());
  EXPECT_EQ(report.epoch, 1u);
  EXPECT_EQ(report.applied, 2u);
  EXPECT_EQ(report.skipped, 0u);
  EXPECT_TRUE(cluster.versioned());
  EXPECT_EQ(cluster.current_epoch(), 1u);

  CommStats stats;
  for (WorkerId from = 0; from < 2; ++from) {
    const auto nbs = cluster.GetNeighbors(from, 0, &stats);
    // Type-0 edge 0->1 removed, 0->4 (w=9) appended; typed order preserved.
    std::vector<VertexId> dsts;
    for (const Neighbor& nb : nbs) dsts.push_back(nb.dst);
    EXPECT_EQ(dsts, (std::vector<VertexId>{2, 4, 3}));
    const auto typed = cluster.GetNeighbors(from, 0, EdgeType{0}, &stats);
    ASSERT_EQ(typed.size(), 2u);
    EXPECT_EQ(typed[1].dst, 4u);
    EXPECT_EQ(typed[1].weight, 9.0f);
  }
}

TEST(UpdateTest, PinnedReaderKeepsSeeingItsEpoch) {
  const AttributedGraph g = MakeTinyGraph();
  Cluster cluster = BuildWith(g, "edge_cut", 2);
  EpochPin pin = cluster.PinEpoch();
  EXPECT_EQ(pin.epoch(), 0u);

  std::vector<EdgeUpdate> batch;
  batch.push_back({EdgeUpdate::Kind::kRemove, 0, 1, 0, 0, kNoAttr});
  ASSERT_TRUE(cluster.ApplyUpdateBatch(batch).ok());

  CommStats stats;
  // The pinned epoch still sees the pre-update adjacency on every path.
  for (WorkerId from = 0; from < 2; ++from) {
    EXPECT_TRUE(SameNeighbors(
        cluster.GetNeighbors(from, 0, &stats, pin.epoch()),
        g.OutNeighbors(0)));
    BatchResult out;
    const std::vector<VertexId> b{0};
    cluster.GetNeighborsBatch(from, b, kAllEdgeTypes, &out, &stats,
                              pin.epoch());
    EXPECT_TRUE(SameNeighbors(out.spans[0], g.OutNeighbors(0)));
  }
  // An unpinned (current) read sees the update.
  EXPECT_EQ(cluster.GetNeighbors(0, 0, &stats).size(),
            g.OutNeighbors(0).size() - 1);
  pin.Release();
}

TEST(UpdateTest, SkippedUpdatesDoNotBurnAnEpoch) {
  const AttributedGraph g = MakeTinyGraph();
  Cluster cluster = BuildWith(g, "edge_cut", 2);

  std::vector<EdgeUpdate> batch;
  // Remove with no matching (dst, type) and an out-of-range source.
  batch.push_back({EdgeUpdate::Kind::kRemove, 0, 5, 0, 0, kNoAttr});
  batch.push_back({EdgeUpdate::Kind::kInsert, 99, 1, 0, 1.0f, kNoAttr});
  // Weights the graph loader rejects: NaN, negative and infinite.
  batch.push_back({EdgeUpdate::Kind::kInsert, 0, 1, 0,
                   std::numeric_limits<float>::quiet_NaN(), kNoAttr});
  batch.push_back({EdgeUpdate::Kind::kInsert, 0, 1, 0, -1.0f, kNoAttr});
  batch.push_back({EdgeUpdate::Kind::kInsert, 0, 1, 0,
                   std::numeric_limits<float>::infinity(), kNoAttr});
  UpdateReport report;
  ASSERT_TRUE(cluster.ApplyUpdateBatch(batch, &report).ok());
  EXPECT_EQ(report.applied, 0u);
  EXPECT_EQ(report.skipped, 5u);
  EXPECT_EQ(cluster.current_epoch(), 0u);
  EXPECT_FALSE(cluster.versioned());

  // Empty batches are also free.
  ASSERT_TRUE(cluster.ApplyUpdateBatch({}, &report).ok());
  EXPECT_EQ(cluster.current_epoch(), 0u);
}

TEST(UpdateTest, UpdatesReachReplicaCopiesAtomically) {
  const AttributedGraph g = MakeSkewGraph();
  Cluster cluster = BuildWith(g, "hybrid", 4);
  VertexId hub = kInvalidVertex;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (!cluster.plan().ReplicasOf(v).empty() && g.OutDegree(v) > 0) {
      hub = v;
      break;
    }
  }
  ASSERT_NE(hub, kInvalidVertex);

  const VertexId new_dst = (hub + 1) % g.num_vertices();
  std::vector<EdgeUpdate> batch;
  batch.push_back({EdgeUpdate::Kind::kInsert, hub, new_dst, 0, 7.5f, kNoAttr});
  ASSERT_TRUE(cluster.ApplyUpdateBatch(batch).ok());

  // Every worker (owner, every replica holder, remote readers) serves the
  // same post-update bytes.
  CommStats stats;
  const auto reference = cluster.GetNeighbors(0, hub, &stats);
  EXPECT_EQ(reference.size(), g.OutDegree(hub) + 1);
  EXPECT_EQ(reference.back().dst, new_dst);
  EXPECT_EQ(reference.back().weight, 7.5f);
  for (WorkerId from = 1; from < 4; ++from) {
    EXPECT_TRUE(SameNeighbors(cluster.GetNeighbors(from, hub, &stats),
                              reference))
        << "from=" << from;
  }
}

/// Batch b flips edge 1 -> 3 of MakeTinyGraph: odd batches insert it, even
/// batches remove it. Returns the versions the batch freed.
size_t Flip(Cluster& cluster, int b) {
  const std::vector<EdgeUpdate> batch{
      {b % 2 == 1 ? EdgeUpdate::Kind::kInsert : EdgeUpdate::Kind::kRemove, 1,
       3, 0, 1.0f, kNoAttr}};
  UpdateReport report;
  EXPECT_TRUE(cluster.ApplyUpdateBatch(batch, &report).ok());
  EXPECT_EQ(report.epoch, static_cast<uint64_t>(b));
  return report.versions_pruned;
}

TEST(UpdateTest, StaleVersionsArePrunedOnceUnpinned) {
  const AttributedGraph g = MakeTinyGraph();
  Cluster cluster = BuildWith(g, "edge_cut", 2);
  // With no pinned readers, batch b frees the version of batch b - 2: the
  // chain holds the newest version and the one current when it was pushed,
  // so memory is the same after batch 10 as after batch 1000.
  size_t bytes_at_10 = 0;
  for (int b = 1; b <= 1000; ++b) {
    ASSERT_EQ(Flip(cluster, b), b >= 3 ? 1u : 0u) << "batch " << b;
    if (b == 10) bytes_at_10 = cluster.MemoryBytes();
  }
  EXPECT_EQ(cluster.MemoryBytes(), bytes_at_10);
  EXPECT_EQ(cluster.current_epoch(), 1000u);
}

TEST(UpdateTest, HeldPinKeepsItsVersionUntilReleased) {
  const AttributedGraph g = MakeTinyGraph();
  Cluster cluster = BuildWith(g, "edge_cut", 2);
  Flip(cluster, 1);
  EpochPin pin = cluster.PinEpoch();
  const auto pinned = cluster.GetNeighbors(0, 1, nullptr, pin.epoch());
  ASSERT_EQ(pinned.size(), 2u);
  EXPECT_EQ(pinned[1].dst, 3u);

  // The pin holds every version from its epoch up: nothing is freed.
  for (int b = 2; b <= 21; ++b) EXPECT_EQ(Flip(cluster, b), 0u) << b;
  EXPECT_EQ(cluster.GetNeighbors(0, 1, nullptr).size(), 2u);  // batch 21
  for (WorkerId from = 0; from < 2; ++from) {
    EXPECT_TRUE(SameNeighbors(
        cluster.GetNeighbors(from, 1, nullptr, pin.epoch()), pinned));
  }
  EXPECT_EQ(pinned[1].dst, 3u);  // the span read at the pin is still live

  // Released, the next batch frees all 20 versions behind batch 21's, and
  // the chain is back to the size an unpinned history leaves.
  pin.Release();
  EXPECT_EQ(Flip(cluster, 22), 20u);
  Cluster unpinned = BuildWith(g, "edge_cut", 2);
  Flip(unpinned, 1);
  Flip(unpinned, 2);
  EXPECT_EQ(cluster.MemoryBytes(), unpinned.MemoryBytes());
}

TEST(UpdateTest, ReplicatedHubVersionsArePrunedOnce) {
  // One version serves the owner and every replica, so it is freed, and
  // counted, once: the per-batch counts sum to 4.
  const AttributedGraph g = MakeSkewGraph();
  Cluster cluster = BuildWith(g, "hybrid", 4);
  VertexId hub = kInvalidVertex;
  for (VertexId v = 0; v < g.num_vertices() && hub == kInvalidVertex; ++v) {
    if (cluster.plan().ReplicasOf(v).size() >= 2) hub = v;
  }
  ASSERT_NE(hub, kInvalidVertex);
  for (int b = 1; b <= 6; ++b) {
    const std::vector<EdgeUpdate> batch{
        {EdgeUpdate::Kind::kInsert, hub, static_cast<VertexId>(b), 0, 1.0f,
         kNoAttr}};
    UpdateReport report;
    ASSERT_TRUE(cluster.ApplyUpdateBatch(batch, &report).ok());
    EXPECT_EQ(report.versions_pruned, b >= 3 ? 1u : 0u) << "batch " << b;
  }
}

// ---------------------------------------------------------------------------
// Cache consistency under updates

TEST(UpdateCacheTest, LruCacheNeverServesStaleData) {
  const AttributedGraph g = MakeTinyGraph();
  Cluster cluster = BuildWith(g, "edge_cut", 2);
  cluster.InstallLruCache(16);

  // Find a vertex with edges that worker `reader` does not own.
  const VertexId v = 0;
  const WorkerId owner = cluster.OwnerOf(v);
  const WorkerId reader = owner == 0 ? 1 : 0;

  CommStats stats;
  cluster.GetNeighbors(reader, v, &stats);  // remote fetch, admitted
  cluster.GetNeighbors(reader, v, &stats);  // cache hit
  EXPECT_GT(stats.cache_hits.load(), 0u);

  std::vector<EdgeUpdate> batch{{EdgeUpdate::Kind::kRemove, v, 1, 0, 0,
                                 kNoAttr}};
  ASSERT_TRUE(cluster.ApplyUpdateBatch(batch).ok());

  // Post-update reads bypass (and drop) the stale entry on every pass.
  for (int i = 0; i < 3; ++i) {
    const auto nbs = cluster.GetNeighbors(reader, v, &stats);
    EXPECT_EQ(nbs.size(), g.OutDegree(v) - 1);
    for (const Neighbor& nb : nbs) EXPECT_NE(nb.dst, 1u);
  }
}

TEST(UpdateCacheTest, StaticCacheNeverServesStaleData) {
  const AttributedGraph g = MakeTinyGraph();
  Cluster cluster = BuildWith(g, "edge_cut", 2);
  cluster.InstallRandomCache(1.0, 3);  // pin everything everywhere

  const VertexId v = 0;
  const WorkerId owner = cluster.OwnerOf(v);
  const WorkerId reader = owner == 0 ? 1 : 0;
  CommStats stats;
  cluster.GetNeighbors(reader, v, &stats);
  EXPECT_GT(stats.cache_hits.load(), 0u);

  std::vector<EdgeUpdate> batch{{EdgeUpdate::Kind::kInsert, v, 5, 0, 4.0f,
                                 kNoAttr}};
  ASSERT_TRUE(cluster.ApplyUpdateBatch(batch).ok());
  const auto nbs = cluster.GetNeighbors(reader, v, &stats);
  EXPECT_EQ(nbs.size(), g.OutDegree(v) + 1);
  // The insert appends within its type group (type 0), so check presence.
  const bool inserted =
      std::any_of(nbs.begin(), nbs.end(), [](const Neighbor& nb) {
        return nb.dst == 5 && nb.weight == 4.0f;
      });
  EXPECT_TRUE(inserted);

  // A pre-update pinned epoch would still be cache-eligible; epoch 0 reads
  // of untouched vertices keep hitting the cache.
  const uint64_t hits_before = stats.cache_hits.load();
  cluster.GetNeighbors(reader, 1, &stats);
  EXPECT_GT(stats.cache_hits.load(), hits_before);
}

/// What one read of v by `reader` at `epoch` is charged: a per-vertex read,
/// or a one-slot batch when `batched`.
CommStats::Snapshot ChargeOfRead(Cluster& cluster, WorkerId reader,
                                 VertexId v, uint64_t epoch, bool batched) {
  CommStats stats;
  if (batched) {
    const VertexId one[] = {v};
    BatchResult out;
    cluster.GetNeighborsBatch(reader, one, kAllEdgeTypes, &out, &stats, epoch);
  } else {
    cluster.GetNeighbors(reader, v, &stats, epoch);
  }
  return stats.snapshot();
}

/// The exact charges around an update of a cached remote vertex v: a reader
/// pinned before the update still hits, the first current read is remote
/// and drops v from the cache, and a pin taken after the update is remote.
/// `lru` picks an LRU-admitted entry, else a static pin.
void ExpectUpdatedCachedVertexCharges(bool lru, bool batched) {
  const AttributedGraph g = MakeTinyGraph();
  Cluster cluster = BuildWith(g, "edge_cut", 2);
  const VertexId v = 0;
  const WorkerId reader = cluster.OwnerOf(v) == 0 ? 1 : 0;
  if (lru) {
    cluster.InstallLruCache(16);
    cluster.GetNeighbors(reader, v, nullptr);  // remote fetch, admitted
  } else {
    cluster.InstallRandomCache(1.0, 3);  // pin everything everywhere
  }
  const NeighborCache& cache = *cluster.server(reader).neighbor_cache();
  const size_t size0 = cache.size();
  const size_t entries0 = cache.entry_count();

  const EpochPin before = cluster.PinEpoch();
  std::vector<EdgeUpdate> batch{{EdgeUpdate::Kind::kInsert, v, 5, 0, 4.0f,
                                 kNoAttr}};
  ASSERT_TRUE(cluster.ApplyUpdateBatch(batch).ok());

  CommStats::Snapshot s =
      ChargeOfRead(cluster, reader, v, before.epoch(), batched);
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.TotalReads(), 1u);
  EXPECT_EQ(s.remote_batches, 0u);
  EXPECT_EQ(cache.size(), size0);
  EXPECT_EQ(cache.entry_count(), entries0);

  s = ChargeOfRead(cluster, reader, v, kEpochCurrent, batched);
  EXPECT_EQ(s.remote_reads, 1u);
  EXPECT_EQ(s.TotalReads(), 1u);
  EXPECT_EQ(s.remote_batches, batched ? 1u : 0u);
  EXPECT_EQ(cache.size(), size0 - 1);
  EXPECT_EQ(cache.entry_count(), entries0 - g.OutDegree(v));

  const EpochPin after = cluster.PinEpoch();
  s = ChargeOfRead(cluster, reader, v, after.epoch(), batched);
  EXPECT_EQ(s.remote_reads, 1u);
  EXPECT_EQ(s.TotalReads(), 1u);
  EXPECT_EQ(cache.size(), size0 - 1);
}

TEST(UpdateCacheTest, UpdatedPinnedVertexChargedExactly) {
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "one-slot batch" : "per-vertex");
    ExpectUpdatedCachedVertexCharges(/*lru=*/false, batched);
  }
}

TEST(UpdateCacheTest, UpdatedLruVertexChargedExactly) {
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "one-slot batch" : "per-vertex");
    ExpectUpdatedCachedVertexCharges(/*lru=*/true, batched);
  }
}

// ---------------------------------------------------------------------------
// Differential: no replicas + no updates == legacy behavior, and replicas
// alone do not change any sampled draw, block, or GNN forward.

TEST(DifferentialTest, HybridOnUniformGraphDegeneratesToTailPlan) {
  // Ring: every degree equals the mean, so no vertex beats the hub
  // threshold and the hybrid plan must be exactly the tail plan.
  GraphBuilder gb;
  const int n = 64;
  for (int i = 0; i < n; ++i) gb.AddVertex();
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(gb.AddEdge(i, (i + 1) % n).ok());
  }
  const AttributedGraph g = std::move(gb.Build()).value();
  auto hybrid = std::move(HybridSkewPartitioner().Partition(g, 4)).value();
  auto tail = std::move(EdgeCutPartitioner().Partition(g, 4)).value();
  EXPECT_FALSE(hybrid.HasReplicas());
  EXPECT_EQ(hybrid.vertex_owner, tail.vertex_owner);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (WorkerId from = 0; from < 4; ++from) {
      EXPECT_EQ(hybrid.ServingWorker(v, from), hybrid.OwnerOf(v));
    }
  }
}

TEST(DifferentialTest, ReplicationChangesNoDrawBlockOrForward) {
  const AttributedGraph g = MakeSkewGraph(23);
  Cluster plain = BuildWith(g, "edge_cut", 4);
  Cluster replicated = BuildWith(g, "hybrid", 4);
  ASSERT_TRUE(replicated.plan().HasReplicas());

  // Same roots, same sampler seeds: draws must be bit-identical because
  // every read returns the same bytes regardless of which copy serves it.
  std::vector<VertexId> roots;
  for (VertexId v = 0; v < g.num_vertices(); v += 17) roots.push_back(v);
  const std::vector<uint32_t> fans{4, 3};

  CommStats s1, s2;
  DistributedNeighborSource src_plain(plain, 0, &s1);
  DistributedNeighborSource src_repl(replicated, 0, &s2);
  NeighborhoodSampler samp_plain(NeighborStrategy::kUniform, 77);
  NeighborhoodSampler samp_repl(NeighborStrategy::kUniform, 77);
  const NeighborhoodSample draw_plain =
      samp_plain.Sample(src_plain, roots, kAllEdgeTypes, fans);
  const NeighborhoodSample draw_repl =
      samp_repl.Sample(src_repl, roots, kAllEdgeTypes, fans);
  EXPECT_EQ(draw_plain.roots, draw_repl.roots);
  EXPECT_EQ(draw_plain.hops, draw_repl.hops);

  // Blocks: relabeled CSR and gathered features are byte-equal too.
  nn::Matrix feats(g.num_vertices(), 8);
  Rng frng(5);
  for (size_t i = 0; i < g.num_vertices() * 8; ++i) {
    feats.data()[i] = static_cast<float>(frng.Uniform(1000)) / 1000.0f;
  }
  block::MatrixFeatureSource fsrc(feats);
  NeighborhoodSampler bs_plain(NeighborStrategy::kUniform, 78);
  NeighborhoodSampler bs_repl(NeighborStrategy::kUniform, 78);
  const block::SampledBlock blk_plain =
      bs_plain.SampleBlock(src_plain, roots, kAllEdgeTypes, fans);
  const block::SampledBlock blk_repl =
      bs_repl.SampleBlock(src_repl, roots, kAllEdgeTypes, fans);
  const nn::Matrix x_plain =
      block::GatherBlockFeatures(blk_plain, fsrc, /*row_cache=*/nullptr);
  const nn::Matrix x_repl =
      block::GatherBlockFeatures(blk_repl, fsrc, /*row_cache=*/nullptr);
  const auto globals_a = blk_plain.globals();
  const auto globals_b = blk_repl.globals();
  ASSERT_TRUE(std::equal(globals_a.begin(), globals_a.end(),
                         globals_b.begin(), globals_b.end()));
  ASSERT_EQ(blk_plain.hops().size(), blk_repl.hops().size());
  for (size_t h = 0; h < blk_plain.hops().size(); ++h) {
    EXPECT_EQ(blk_plain.hops()[h].dst, blk_repl.hops()[h].dst);
    EXPECT_EQ(blk_plain.hops()[h].src, blk_repl.hops()[h].src);
    EXPECT_EQ(blk_plain.hops()[h].offsets, blk_repl.hops()[h].offsets);
  }
  ASSERT_EQ(x_plain.rows(), x_repl.rows());
  EXPECT_EQ(std::memcmp(x_plain.data(), x_repl.data(),
                        x_plain.rows() * x_plain.cols() * sizeof(float)),
            0);

  // GNN forward over the deepest hop of each block.
  Rng wrng_a(9), wrng_b(9);
  algo::SageLayer layer_a(8, 4, /*maxpool=*/false, wrng_a);
  algo::SageLayer layer_b(8, 4, /*maxpool=*/false, wrng_b);
  algo::SageLayer::Cache cache_a, cache_b;
  const nn::Matrix out_a =
      layer_a.ForwardBlock(x_plain, blk_plain.hops().back(), &cache_a);
  const nn::Matrix out_b =
      layer_b.ForwardBlock(x_repl, blk_repl.hops().back(), &cache_b);
  ASSERT_EQ(out_a.rows(), out_b.rows());
  EXPECT_EQ(std::memcmp(out_a.data(), out_b.data(),
                        out_a.rows() * out_a.cols() * sizeof(float)),
            0);
}

// ---------------------------------------------------------------------------
// Differential against a reference adjacency model: after random update
// batches, every read path at every pinned epoch returns exactly the model's
// adjacency at that epoch.

/// Typed adjacency per vertex: model[v][t].
using AdjModel = std::vector<std::vector<std::vector<Neighbor>>>;

AdjModel ModelOf(const AttributedGraph& g) {
  AdjModel model(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (EdgeType t = 0; t < g.num_edge_types(); ++t) {
      const auto typed = g.OutNeighbors(v, t);
      model[v].emplace_back(typed.begin(), typed.end());
    }
  }
  return model;
}

std::vector<Neighbor> ModelNeighbors(const AdjModel& model, VertexId v) {
  std::vector<Neighbor> all;
  for (const auto& typed : model[v]) {
    all.insert(all.end(), typed.begin(), typed.end());
  }
  return all;
}

/// Applies a batch with ApplyUpdateBatch's semantics; returns the number of
/// updates it skips.
size_t ApplyToModel(std::span<const EdgeUpdate> batch, AdjModel* model) {
  const VertexId n = static_cast<VertexId>(model->size());
  size_t skipped = 0;
  for (const EdgeUpdate& u : batch) {
    if (u.src >= n || u.type >= (*model)[0].size() ||
        (u.kind == EdgeUpdate::Kind::kInsert && u.dst >= n)) {
      ++skipped;
      continue;
    }
    std::vector<Neighbor>& list = (*model)[u.src][u.type];
    if (u.kind == EdgeUpdate::Kind::kInsert) {
      list.push_back(Neighbor{u.dst, u.weight, u.attr});
      continue;
    }
    auto match = std::find_if(
        list.begin(), list.end(),
        [&u](const Neighbor& nb) { return nb.dst == u.dst; });
    if (match == list.end()) {
      ++skipped;
    } else {
      list.erase(match);
    }
  }
  return skipped;
}

/// Random edits: inserts with fresh weights, removes of existing edges and
/// of absent ones, and one out-of-range source.
std::vector<EdgeUpdate> RandomBatch(const AdjModel& model, size_t size,
                                    Rng* rng) {
  const VertexId n = static_cast<VertexId>(model.size());
  const size_t types = model[0].size();
  std::vector<EdgeUpdate> batch;
  for (size_t i = 0; i < size; ++i) {
    EdgeUpdate u;
    // Half the edits hit the 64 lowest ids (the hubs of a ChungLu graph),
    // so vertices are updated again and again and versions get reclaimed.
    u.src = static_cast<VertexId>(
        rng->Uniform(rng->Uniform(2) == 0 ? std::min<VertexId>(n, 64) : n));
    u.type = static_cast<EdgeType>(rng->Uniform(types));
    u.dst = static_cast<VertexId>(rng->Uniform(n));
    const auto& list = model[u.src][u.type];
    if (rng->Uniform(4) == 0) {
      u.kind = EdgeUpdate::Kind::kRemove;
      if (!list.empty() && rng->Uniform(4) != 0) {
        u.dst = list[rng->Uniform(list.size())].dst;
      }
    } else {
      u.weight = static_cast<float>(rng->Uniform(1000)) / 8.0f;
    }
    batch.push_back(u);
  }
  batch.push_back({EdgeUpdate::Kind::kInsert, n + 5, 0, 0, 1.0f, kNoAttr});
  return batch;
}

void ExpectClusterMatchesModel(Cluster& cluster, uint64_t epoch,
                               const AdjModel& model) {
  const VertexId n = static_cast<VertexId>(model.size());
  const size_t types = model[0].size();
  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  for (WorkerId from = 0; from < cluster.num_workers(); ++from) {
    CommStats stats;
    BatchResult out;
    cluster.GetNeighborsBatch(from, all, kAllEdgeTypes, &out, &stats, epoch);
    for (VertexId v = 0; v < n; ++v) {
      const std::vector<Neighbor> want = ModelNeighbors(model, v);
      ASSERT_TRUE(SameNeighbors(cluster.GetNeighbors(from, v, &stats, epoch),
                                want))
          << "v=" << v << " from=" << from << " epoch=" << epoch;
      ASSERT_TRUE(SameNeighbors(out[v], want))
          << "batched v=" << v << " from=" << from << " epoch=" << epoch;
    }
    for (EdgeType t = 0; t < types; ++t) {
      cluster.GetNeighborsBatch(from, all, t, &out, &stats, epoch);
      for (VertexId v = 0; v < n; ++v) {
        ASSERT_TRUE(SameNeighbors(
            cluster.GetNeighbors(from, v, t, &stats, epoch), model[v][t]))
            << "typed v=" << v << " t=" << t << " epoch=" << epoch;
        ASSERT_TRUE(SameNeighbors(out[v], model[v][t]))
            << "typed batched v=" << v << " t=" << t << " epoch=" << epoch;
      }
    }
  }
}

/// MakeSkewGraph(31) with each edge typed a or b by (src + dst) parity:
/// hubs for hybrid replication and two edge types for typed reads. With
/// `attrs`, two vertices in three also get an attribute record.
AttributedGraph MakeTwoTypeSkewGraph(bool attrs = false) {
  const AttributedGraph base = MakeSkewGraph(31);
  GraphSchema schema;
  schema.AddEdgeType("a");
  schema.AddEdgeType("b");
  GraphBuilder gb(std::move(schema));
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    if (attrs && v % 3 != 0) {
      gb.AddVertex(0, {static_cast<float>(v)});
    } else {
      gb.AddVertex();
    }
  }
  for (VertexId v = 0; v < base.num_vertices(); ++v) {
    for (const Neighbor& nb : base.OutNeighbors(v)) {
      EXPECT_TRUE(gb.AddEdge(v, nb.dst, (v + nb.dst) % 2, nb.weight).ok());
    }
  }
  return std::move(gb.Build()).value();
}

TEST(UpdateModelTest, PinnedEpochReadsMatchReferenceModel) {
  // Two edge types, so typed reads and type-segmented versions are covered;
  // hubs, so hybrid replica copies take updates too; an LRU cache, so the
  // updated-vertex bypass runs.
  const AttributedGraph g = MakeTwoTypeSkewGraph();
  Cluster cluster = BuildWith(g, "hybrid", 4);
  ASSERT_TRUE(cluster.plan().HasReplicas());
  cluster.InstallLruCache(128);

  AdjModel model = ModelOf(g);
  std::vector<std::pair<EpochPin, AdjModel>> pinned;
  pinned.emplace_back(cluster.PinEpoch(), model);
  Rng rng(2024);
  size_t pruned = 0;
  for (int b = 0; b < 8; ++b) {
    const std::vector<EdgeUpdate> batch = RandomBatch(model, 60, &rng);
    const size_t skipped = ApplyToModel(batch, &model);
    UpdateReport report;
    ASSERT_TRUE(cluster.ApplyUpdateBatch(batch, &report).ok());
    EXPECT_EQ(report.epoch, static_cast<uint64_t>(b + 1));
    EXPECT_EQ(report.skipped, skipped);
    EXPECT_EQ(report.applied, batch.size() - skipped);
    pruned += report.versions_pruned;
    // Drop the oldest pin now and then so reclamation runs below the
    // epochs still pinned.
    if (b % 3 == 2) pinned.erase(pinned.begin());
    pinned.emplace_back(cluster.PinEpoch(), model);
    // Warm the cache at the newest epoch so later old-epoch reads meet
    // admitted entries.
    ExpectClusterMatchesModel(cluster, kEpochCurrent, model);
  }
  EXPECT_GT(pruned, 0u);
  for (const auto& [pin, at_pin] : pinned) {
    ExpectClusterMatchesModel(cluster, pin.epoch(), at_pin);
  }
}

// ---------------------------------------------------------------------------
// Accounting fingerprint: what a seeded mix of reads and updates charges.

/// Runs a seeded sequence on `cluster` (built over `g`): rounds of
/// per-vertex and batched reads, typed and untyped, from every worker, at
/// the current epoch and at every still-pinned older epoch, each round
/// followed by an update batch. Returns every CommStats field, then each
/// worker's cache size() and entry_count().
std::vector<uint64_t> ChargeFingerprint(Cluster& cluster,
                                        const AttributedGraph& g) {
  const VertexId n = g.num_vertices();
  AdjModel model = ModelOf(g);
  Rng rng(4242);
  // Half the picks hit the 64 lowest ids, which RandomBatch updates most.
  auto pick = [&rng, n] {
    return static_cast<VertexId>(
        rng.Uniform(rng.Uniform(2) == 0 ? std::min<VertexId>(n, 64) : n));
  };
  // Draws kAllEdgeTypes one time in three, else a concrete type.
  auto pick_type = [&rng] {
    const uint64_t t = rng.Uniform(3);
    return t == 2 ? kAllEdgeTypes : static_cast<EdgeType>(t);
  };
  CommStats stats;
  std::vector<EpochPin> pins;
  pins.push_back(cluster.PinEpoch());
  for (int round = 0; round < 6; ++round) {
    std::vector<uint64_t> epochs{kEpochCurrent};
    for (const EpochPin& pin : pins) epochs.push_back(pin.epoch());
    for (const uint64_t e : epochs) {
      for (WorkerId from = 0; from < cluster.num_workers(); ++from) {
        for (int i = 0; i < 24; ++i) {
          cluster.GetNeighbors(from, pick(), pick_type(), &stats, e);
        }
        std::vector<VertexId> batch(40);
        for (VertexId& v : batch) v = pick();
        BatchResult out;
        cluster.GetNeighborsBatch(from, batch, pick_type(), &out, &stats, e);
      }
    }
    const std::vector<EdgeUpdate> batch = RandomBatch(model, 40, &rng);
    ApplyToModel(batch, &model);
    EXPECT_TRUE(cluster.ApplyUpdateBatch(batch).ok());
    if (round % 2 == 1) pins.erase(pins.begin());
    pins.push_back(cluster.PinEpoch());
  }
  const CommStats::Snapshot s = stats.snapshot();
  std::vector<uint64_t> print{s.local_reads,    s.replica_reads,
                              s.cache_hits,     s.remote_reads,
                              s.remote_batches, s.batched_remote_reads,
                              s.faults_injected, s.retry_attempts,
                              s.retry_backoff_us, s.failed_reads};
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    const NeighborCache* cache = cluster.server(w).neighbor_cache();
    print.push_back(cache->size());
    print.push_back(cache->entry_count());
  }
  return print;
}

TEST(UpdateCacheTest, ChargesMatchParentFingerprint) {
  // Every charge and cache size of the sequence, pinned bit for bit: how a
  // cache and the version index decide "hit or remote" is part of the
  // communication count the paper's cache comparison rests on. Layout:
  // local, replica, hit, remote, remote_batches, batched_remote, faults,
  // retries, backoff_us, failed, then (size, entry_count) per worker.
  const AttributedGraph g = MakeTwoTypeSkewGraph();
  {
    Cluster cluster = BuildWith(g, "hybrid", 4);
    ASSERT_TRUE(cluster.plan().HasReplicas());
    cluster.InstallLruCache(128);
    const std::vector<uint64_t> want{1324, 22,  1224, 2684, 251,  1614,
                                     0,    0,   0,    0,    128,  978,
                                     128,  1162, 128, 1232, 128,  1125};
    EXPECT_EQ(ChargeFingerprint(cluster, g), want);
  }
  {
    Cluster cluster = BuildWith(g, "hybrid", 4);
    cluster.InstallRandomCache(0.5, 17);
    const std::vector<uint64_t> want{1324, 22,  1470, 2411, 251,  1444,
                                     0,    0,   0,    0,    431,  4448,
                                     428,  4377, 427, 4341, 432,  4450};
    EXPECT_EQ(ChargeFingerprint(cluster, g), want);
  }
}

/// Runs a seeded sequence of fallible batched reads on `cluster` (built over
/// `g`, fault injection installed): rounds of GetNeighborsBatch, typed and
/// untyped, and GetVertexAttrBatch from every worker, each round followed
/// by an update batch. Checks that every failed slot is ok = 0 with an empty
/// span or kNoAttr. Returns every CommStats field, each worker's served
/// reads, its cache size() and entry_count(), then the failed neighbor and
/// attribute slots, a fold of their positions and a fold of what the
/// resolved slots returned.
std::vector<uint64_t> FaultChargeFingerprint(Cluster& cluster,
                                             const AttributedGraph& g) {
  const VertexId n = g.num_vertices();
  AdjModel model = ModelOf(g);
  Rng rng(777);
  // Half the picks hit the 64 lowest ids, so batches repeat vertices.
  auto pick = [&rng, n] {
    return static_cast<VertexId>(
        rng.Uniform(rng.Uniform(2) == 0 ? std::min<VertexId>(n, 64) : n));
  };
  CommStats stats;
  uint64_t failed_nbr = 0;
  uint64_t failed_attr = 0;
  uint64_t failed_at = 0;
  uint64_t payload = 0;
  uint64_t call = 0;
  for (int round = 0; round < 4; ++round) {
    for (WorkerId from = 0; from < cluster.num_workers(); ++from) {
      for (int b = 0; b < 3; ++b, ++call) {
        std::vector<VertexId> batch(48);
        for (VertexId& v : batch) v = pick();
        const EdgeType type =
            b == 2 ? kAllEdgeTypes : static_cast<EdgeType>(b);
        BatchResult out;
        const Status st =
            cluster.GetNeighborsBatch(from, batch, type, &out, &stats);
        EXPECT_EQ(st.ok(), out.FailedSlots() == 0);
        for (size_t i = 0; i < batch.size(); ++i) {
          if (out.ok[i] == 0) {
            EXPECT_TRUE(out[i].empty()) << "v=" << batch[i];
            ++failed_nbr;
            failed_at = Mix64(failed_at ^ (call << 32 | i));
            continue;
          }
          for (const Neighbor& nb : out[i]) payload = Mix64(payload ^ nb.dst);
        }
        std::vector<AttrId> ids;
        std::vector<uint8_t> ok;
        const Status ast =
            cluster.GetVertexAttrBatch(from, batch, &ids, &stats, &ok);
        size_t failed_here = 0;
        for (size_t i = 0; i < batch.size(); ++i) {
          if (ok[i] == 0) {
            EXPECT_EQ(ids[i], kNoAttr) << "v=" << batch[i];
            ++failed_here;
            failed_at = Mix64(failed_at ^ (call << 32 | i) ^ (1ULL << 63));
            continue;
          }
          EXPECT_EQ(ids[i], g.vertex_attr(batch[i]));
          payload = Mix64(payload ^ ids[i]);
        }
        EXPECT_EQ(ast.ok(), failed_here == 0);
        failed_attr += failed_here;
      }
    }
    const std::vector<EdgeUpdate> batch = RandomBatch(model, 40, &rng);
    ApplyToModel(batch, &model);
    EXPECT_TRUE(cluster.ApplyUpdateBatch(batch).ok());
  }
  const CommStats::Snapshot s = stats.snapshot();
  std::vector<uint64_t> print{s.local_reads,    s.replica_reads,
                              s.cache_hits,     s.remote_reads,
                              s.remote_batches, s.batched_remote_reads,
                              s.faults_injected, s.retry_attempts,
                              s.retry_backoff_us, s.failed_reads};
  const std::vector<uint64_t> served = cluster.ServedReadsSnapshot();
  print.insert(print.end(), served.begin(), served.end());
  for (WorkerId w = 0; w < cluster.num_workers(); ++w) {
    const NeighborCache* cache = cluster.server(w).neighbor_cache();
    print.push_back(cache->size());
    print.push_back(cache->entry_count());
  }
  print.insert(print.end(), {failed_nbr, failed_attr, failed_at, payload});
  return print;
}

TEST(UpdateCacheTest, FaultPathChargesMatchParentFingerprint) {
  // The fault path pinned bit for bit: retries, backoff and failed slots
  // are charged per coalesced request, and a failed fetch must not be
  // admitted to the cache. The expected values were recorded from the
  // single-loop batch reads, before they were split into route, read and
  // count passes. Layout: the 10 CommStats fields as in
  // ChargesMatchParentFingerprint, served reads per worker, (size,
  // entry_count) per worker, then failed neighbor slots, failed attribute
  // slots, the fold of failed positions and the fold of resolved payloads.
  const AttributedGraph g = MakeTwoTypeSkewGraph(/*attrs=*/true);
  Cluster cluster = BuildWith(g, "hybrid", 4);
  ASSERT_TRUE(cluster.plan().HasReplicas());
  cluster.InstallLruCache(96);
  FaultConfig cfg;
  cfg.seed = 23;
  cfg.transient_prob = 0.2;
  cfg.schedule.push_back({3, FaultKind::kTransient, 99});  // worker 3 is dark
  // Two attempts, so some transient faults exhaust their request too.
  RetryPolicy policy;
  policy.max_attempts = 2;
  cluster.InstallFaultInjection(cfg, policy);
  const std::vector<uint64_t> want{
      1220, 18,  369, 1846, 207, 1846, 203,  122, 11937, 81,
      996,  1027, 1015, 415,
      96,   725, 96,  808,  96,  765,  96,   804,
      454,  533, 7890779116177274813ULL, 3042121566780854794ULL};
  EXPECT_EQ(FaultChargeFingerprint(cluster, g), want);
}

// ---------------------------------------------------------------------------
// Pin overflow: a reader that finds every pin slot taken still blocks the
// reclamation of the versions it reads.

TEST(EpochOverflowTest, OverflowPinBlocksPruningUntilReleased) {
  obs::MetricsRegistry registry;
  obs::SetDefault(&registry);
  const AttributedGraph g = MakeTinyGraph();
  Cluster cluster = BuildWith(g, "edge_cut", 2);
  obs::SetDefault(nullptr);

  // Batch k appends 1 -> 3 with weight k, so epoch e shows e extra edges.
  auto append = [&cluster](float k) {
    std::vector<EdgeUpdate> batch{
        {EdgeUpdate::Kind::kInsert, 1, 3, 0, k, kNoAttr}};
    UpdateReport report;
    EXPECT_TRUE(cluster.ApplyUpdateBatch(batch, &report).ok());
    return report;
  };
  append(1.0f);

  std::vector<EpochPin> slots;
  for (uint32_t i = 0; i < EpochManager::kMaxPins; ++i) {
    slots.push_back(cluster.PinEpoch());
  }
  EpochPin overflow = cluster.PinEpoch();
  EXPECT_TRUE(overflow.pinned());
  EXPECT_EQ(overflow.epoch(), 1u);
  EXPECT_EQ(registry.GetCounter("epoch.pin_overflow")->Value(), 1u);
  slots.clear();  // only the overflow pin is left

  // Two more versions: without the overflow pin, the second batch would
  // reclaim the epoch-1 version the pin still reads.
  EXPECT_EQ(append(2.0f).versions_pruned, 0u);
  EXPECT_EQ(append(3.0f).versions_pruned, 0u);
  for (WorkerId from = 0; from < 2; ++from) {
    CommStats stats;
    const auto nbs = cluster.GetNeighbors(from, 1, &stats, overflow.epoch());
    ASSERT_EQ(nbs.size(), 2u) << "from=" << from;
    EXPECT_EQ(nbs[1].weight, 1.0f);
  }

  overflow.Release();
  EXPECT_GT(append(4.0f).versions_pruned, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency stress (run under TSan in CI): one writer flipping every
// adjacency each batch, readers pinning epochs. The invariant is exact:
// batch k stamps every edge weight to float(k), so a read scope pinned at
// epoch e must see weight float(e) everywhere — any torn epoch shows up as
// a mixed weight, any reclamation bug as a (sanitizer-visible) dangling
// span.

TEST(UpdateStressTest, ConcurrentUpdatesAndPinnedReadsSeeOneEpoch) {
  GraphBuilder gb;
  const VertexId n = 48;
  for (VertexId i = 0; i < n; ++i) gb.AddVertex();
  for (VertexId i = 0; i < n; ++i) {
    EXPECT_TRUE(gb.AddEdge(i, (i + 1) % n, 0, 0.0f).ok());
  }
  const AttributedGraph g = std::move(gb.Build()).value();
  Cluster cluster = BuildWith(g, "edge_cut", 2);

  constexpr int kBatches = 60;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    for (int k = 1; k <= kBatches; ++k) {
      std::vector<EdgeUpdate> batch;
      batch.reserve(2 * n);
      for (VertexId v = 0; v < n; ++v) {
        const VertexId d = (v + 1) % n;
        batch.push_back({EdgeUpdate::Kind::kRemove, v, d, 0, 0, kNoAttr});
        batch.push_back({EdgeUpdate::Kind::kInsert, v, d, 0,
                         static_cast<float>(k), kNoAttr});
      }
      ASSERT_TRUE(cluster.ApplyUpdateBatch(batch).ok());
    }
    done.store(true, std::memory_order_release);
  });

  auto check_scope = [&](WorkerId from, bool batched) {
    EpochPin pin = cluster.PinEpoch();
    const float want = static_cast<float>(pin.epoch());
    CommStats stats;
    if (batched) {
      std::vector<VertexId> all(n);
      for (VertexId v = 0; v < n; ++v) all[v] = v;
      BatchResult out;
      cluster.GetNeighborsBatch(from, all, kAllEdgeTypes, &out, &stats,
                                pin.epoch());
      for (const auto& span : out.spans) {
        for (const Neighbor& nb : span) {
          if (nb.weight != want) violations.fetch_add(1);
        }
      }
    } else {
      for (VertexId v = 0; v < n; ++v) {
        for (const Neighbor& nb :
             cluster.GetNeighbors(from, v, &stats, pin.epoch())) {
          if (nb.weight != want) violations.fetch_add(1);
        }
      }
    }
    pin.Release();
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      const WorkerId from = static_cast<WorkerId>(r % 2);
      while (!done.load(std::memory_order_acquire)) {
        check_scope(from, /*batched=*/r == 1);
        // The sampler path: DrawHops brackets each call with an epoch pin;
        // here we only require it to be race-free and return valid draws.
        CommStats stats;
        DistributedNeighborSource source(cluster, from, &stats);
        NeighborhoodSampler hood(NeighborStrategy::kUniform, 100 + r);
        std::vector<VertexId> roots{0, 7, 13};
        const std::vector<uint32_t> fans{2, 2};
        const auto draw = hood.Sample(source, roots, kAllEdgeTypes, fans);
        if (draw.hops.size() != 2) violations.fetch_add(1);
      }
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(cluster.current_epoch(), static_cast<uint64_t>(kBatches));

  // Quiescent state: one final flip reclaims everything older once no
  // reader pins remain.
  std::vector<EdgeUpdate> last{{EdgeUpdate::Kind::kInsert, 0, 2, 0, 1.0f,
                                kNoAttr}};
  UpdateReport report;
  ASSERT_TRUE(cluster.ApplyUpdateBatch(last, &report).ok());
  EXPECT_GT(report.versions_pruned, 0u);
}

TEST(UpdateStressTest, BatchReadsEqualPerVertexReadsWhileWriting) {
  // One reader per worker (caches are per-worker, single-threaded), a
  // static cache so cache hits, bypasses and replicas all mix with a
  // concurrent writer. Every slot of a pinned batch must equal the
  // per-vertex read of the same vertex at the same epoch.
  const AttributedGraph g = MakeSkewGraph(5);
  Cluster cluster = BuildWith(g, "hybrid", 4);
  cluster.InstallRandomCache(0.3, 9);
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};

  std::thread writer([&] {
    AdjModel model = ModelOf(g);
    Rng rng(77);
    for (int b = 0; b < 40; ++b) {
      const auto batch = RandomBatch(model, 32, &rng);
      ApplyToModel(batch, &model);
      ASSERT_TRUE(cluster.ApplyUpdateBatch(batch).ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<VertexId> batch;
  for (VertexId v = 0; v < g.num_vertices(); v += 2) batch.push_back(v);
  batch.insert(batch.end(), batch.begin(), batch.begin() + 20);  // repeats
  std::vector<std::thread> readers;
  for (WorkerId from = 0; from < 4; ++from) {
    readers.emplace_back([&, from] {
      do {
        EpochPin pin = cluster.PinEpoch();
        CommStats stats;
        BatchResult out;
        cluster.GetNeighborsBatch(from, batch, kAllEdgeTypes, &out, &stats,
                                  pin.epoch());
        for (size_t i = 0; i < batch.size(); ++i) {
          const auto one =
              cluster.GetNeighbors(from, batch[i], &stats, pin.epoch());
          if (!SameNeighbors(out[i], one)) {
            mismatches.fetch_add(1);
          }
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cluster.current_epoch(), 40u);
}

TEST(UpdateStressTest, MorePinnedReadersThanPinSlots) {
  // 128 concurrent readers, twice the pin slots, each holding a pin across
  // a SampleBlock while a writer stamps every edge weight with its batch
  // number: a scope pinned at epoch e must read weight e everywhere, also
  // for the readers whose pins overflowed the slot table.
  obs::MetricsRegistry registry;
  obs::SetDefault(&registry);
  GraphBuilder gb;
  const VertexId n = 48;
  for (VertexId i = 0; i < n; ++i) gb.AddVertex();
  for (VertexId i = 0; i < n; ++i) {
    EXPECT_TRUE(gb.AddEdge(i, (i + 1) % n, 0, 0.0f).ok());
  }
  const AttributedGraph g = std::move(gb.Build()).value();
  Cluster cluster = BuildWith(g, "edge_cut", 2);
  obs::SetDefault(nullptr);

  constexpr int kReaders = 128;
  constexpr int kBatches = 30;
  std::atomic<int> ready{0};
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::thread writer([&] {
    while (ready.load() < kReaders) std::this_thread::yield();
    for (int k = 1; k <= kBatches; ++k) {
      std::vector<EdgeUpdate> batch;
      for (VertexId v = 0; v < n; ++v) {
        const VertexId d = (v + 1) % n;
        batch.push_back({EdgeUpdate::Kind::kRemove, v, d, 0, 0, kNoAttr});
        batch.push_back({EdgeUpdate::Kind::kInsert, v, d, 0,
                         static_cast<float>(k), kNoAttr});
      }
      ASSERT_TRUE(cluster.ApplyUpdateBatch(batch).ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const WorkerId from = static_cast<WorkerId>(r % 2);
      CommStats stats;
      DistributedNeighborSource source(cluster, from, &stats);
      NeighborhoodSampler hood(NeighborStrategy::kUniform, 500 + r);
      const std::vector<VertexId> roots{0, 7, 13};
      const std::vector<uint32_t> fans{2, 2};
      bool first = true;
      do {
        EpochPin pin = cluster.PinEpoch();
        if (first) {
          // Every reader holds a pin at once: half of them overflow.
          ready.fetch_add(1);
          while (ready.load() < kReaders) std::this_thread::yield();
          first = false;
        }
        const auto blk = hood.SampleBlock(source, roots, kAllEdgeTypes, fans);
        if (blk.root_locals().size() != roots.size()) violations.fetch_add(1);
        const float want = static_cast<float>(pin.epoch());
        for (VertexId v = 0; v < n; ++v) {
          for (const Neighbor& nb :
               cluster.GetNeighbors(from, v, &stats, pin.epoch())) {
            if (nb.weight != want) violations.fetch_add(1);
          }
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(cluster.current_epoch(), static_cast<uint64_t>(kBatches));
  EXPECT_GE(registry.GetCounter("epoch.pin_overflow")->Value(),
            static_cast<uint64_t>(kReaders - EpochManager::kMaxPins));
}

TEST(UpdateStressTest, UnpinnedReadsWhileWriting) {
  // No caller pins: every read resolves kEpochCurrent and is kept safe by
  // the cluster's own pin for the length of the call. Batch k rewrites
  // every adjacency to 1 + k % 3 edges of weight k, so a result names its
  // epoch. Every batch frees what no reader can reach any more.
  //
  // An unpinned result is only safe to use until a batch runs after the
  // call, so two kinds of reader share the writer. Checked readers compare
  // each result with the model in full; the writer starts a batch only once
  // every checked reader has finished an iteration since the last batch
  // returned, so at most one batch runs inside one of their iterations, and
  // a single batch never frees the version a read of the then-current
  // epoch resolved: it is the newest one at or below that batch's
  // min-active epoch. Long readers make 3072-slot batched reads that the
  // writer never waits for, so batches land inside their calls (what the
  // internal pin guards); they check only slot sizes, which live in the
  // result, not in versions.
  GraphBuilder gb;
  const VertexId n = 48;
  for (VertexId i = 0; i < n; ++i) gb.AddVertex();
  for (VertexId i = 0; i < n; ++i) {
    EXPECT_TRUE(gb.AddEdge(i, (i + 1) % n, 0, 0.0f).ok());
  }
  const AttributedGraph g = std::move(gb.Build()).value();
  Cluster cluster = BuildWith(g, "edge_cut", 2);

  constexpr int kBatches = 60;
  std::vector<AdjModel> models{ModelOf(g)};
  std::vector<std::vector<EdgeUpdate>> batches(kBatches + 1);
  for (int k = 1; k <= kBatches; ++k) {
    for (VertexId v = 0; v < n; ++v) {
      for (const Neighbor& nb : models.back()[v][0]) {
        batches[k].push_back({EdgeUpdate::Kind::kRemove, v, nb.dst, 0, 0,
                              kNoAttr});
      }
      for (VertexId j = 1; j <= static_cast<VertexId>(1 + k % 3); ++j) {
        batches[k].push_back({EdgeUpdate::Kind::kInsert, v, (v + j) % n, 0,
                              static_cast<float>(k), kNoAttr});
      }
    }
    models.push_back(models.back());
    ApplyToModel(batches[k], &models.back());
  }
  // The epoch a result shows, or -1 when it matches no epoch's model.
  auto epoch_of = [&](VertexId v, std::span<const Neighbor> nbs) {
    if (nbs.empty()) return -1;
    const int e = static_cast<int>(nbs[0].weight);
    return e <= kBatches && SameNeighbors(nbs, models[e][v][0]) ? e : -1;
  };

  constexpr int kChecked = 2;
  std::atomic<uint64_t> iterations[kChecked] = {0, 0};
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  size_t pruned = 0;

  std::thread writer([&] {
    for (int k = 1; k <= kBatches; ++k) {
      UpdateReport report;
      EXPECT_TRUE(cluster.ApplyUpdateBatch(batches[k], &report).ok());
      pruned += report.versions_pruned;
      for (auto& it : iterations) {
        const uint64_t seen = it.load();
        while (it.load() == seen) std::this_thread::yield();
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  std::vector<std::thread> readers;
  for (int r = 0; r < kChecked; ++r) {
    readers.emplace_back([&, r] {
      const WorkerId from = static_cast<WorkerId>(r);
      CommStats stats;
      BatchResult out;
      while (!done.load(std::memory_order_acquire)) {
        cluster.GetNeighborsBatch(from, all, kAllEdgeTypes, &out, &stats);
        const int e = epoch_of(0, out[0]);
        for (VertexId v = 0; v < n; ++v) {
          if (e < 0 || epoch_of(v, out[v]) != e) violations.fetch_add(1);
        }
        // Each per-vertex read is one epoch, never older than the last.
        int last = e;
        for (VertexId v = 0; v < n; ++v) {
          const int ev = epoch_of(v, cluster.GetNeighbors(from, v, &stats));
          if (ev < last) violations.fetch_add(1);
          last = std::max(last, ev);
        }
        iterations[r].fetch_add(1);
      }
    });
  }
  std::vector<VertexId> repeated;
  for (int i = 0; i < 64; ++i) {
    repeated.insert(repeated.end(), all.begin(), all.end());
  }
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const WorkerId from = static_cast<WorkerId>(r);
      CommStats stats;
      BatchResult out;
      while (!done.load(std::memory_order_acquire)) {
        cluster.GetNeighborsBatch(from, repeated, kAllEdgeTypes, &out, &stats);
        for (const auto& span : out.spans) {
          if (span.size() != out.spans[0].size()) violations.fetch_add(1);
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(cluster.current_epoch(), static_cast<uint64_t>(kBatches));
  EXPECT_GT(pruned, 0u);
}

}  // namespace
}  // namespace aligraph
