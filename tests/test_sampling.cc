// Tests for the sampling layer: TRAVERSE, NEIGHBORHOOD, NEGATIVE samplers
// and dynamic-weight sampling.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>
#include <unordered_map>
#include <vector>

#include "gen/powerlaw.h"
#include "gen/taobao.h"
#include "graph/graph.h"
#include "partition/partitioner.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

// Star graph: 0 -> {1..4} with increasing weights, plus 5 isolated.
AttributedGraph MakeStar() {
  GraphBuilder gb;
  for (int i = 0; i < 6; ++i) gb.AddVertex();
  for (VertexId v = 1; v <= 4; ++v) {
    EXPECT_TRUE(gb.AddEdge(0, v, 0, static_cast<float>(v)).ok());
  }
  return std::move(gb.Build()).value();
}

TEST(TraverseSamplerTest, SamplesFromPoolOnly) {
  TraverseSampler sampler({10, 20, 30});
  const auto batch = sampler.Sample(100);
  ASSERT_EQ(batch.size(), 100u);
  for (VertexId v : batch) {
    EXPECT_TRUE(v == 10 || v == 20 || v == 30);
  }
}

TEST(TraverseSamplerTest, EmptyPoolYieldsEmptyBatch) {
  TraverseSampler sampler({});
  EXPECT_TRUE(sampler.Sample(10).empty());
}

TEST(TraverseSamplerTest, RoughlyUniform) {
  TraverseSampler sampler({0, 1, 2, 3});
  std::unordered_map<VertexId, int> counts;
  for (VertexId v : sampler.Sample(40000)) ++counts[v];
  for (const auto& [v, c] : counts) {
    EXPECT_NEAR(c / 40000.0, 0.25, 0.02);
  }
}

TEST(TraverseSamplerTest, SampleEdgesReturnsRealEdges) {
  const AttributedGraph g = MakeStar();
  LocalNeighborSource source(g);
  std::vector<VertexId> pool(g.num_vertices());
  std::iota(pool.begin(), pool.end(), 0);
  TraverseSampler sampler(pool);
  const auto edges = sampler.SampleEdges(source, 0, 50);
  EXPECT_FALSE(edges.empty());
  for (const auto& [src, nb] : edges) {
    EXPECT_EQ(src, 0u);  // only vertex 0 has out-edges
    EXPECT_GE(nb.dst, 1u);
    EXPECT_LE(nb.dst, 4u);
  }
}

TEST(NeighborhoodSamplerTest, ShapesAreAligned) {
  const AttributedGraph g = MakeStar();
  LocalNeighborSource source(g);
  NeighborhoodSampler sampler;
  const std::vector<VertexId> roots{0, 0, 5};
  const std::vector<uint32_t> fans{3, 2};
  const auto sample = sampler.Sample(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  ASSERT_EQ(sample.hops.size(), 2u);
  EXPECT_EQ(sample.hops[0].size(), roots.size() * 3);
  EXPECT_EQ(sample.hops[1].size(), roots.size() * 3 * 2);
}

TEST(NeighborhoodSamplerTest, IsolatedVertexFallsBackToSelf) {
  const AttributedGraph g = MakeStar();
  LocalNeighborSource source(g);
  NeighborhoodSampler sampler;
  const std::vector<VertexId> roots{5};
  const std::vector<uint32_t> fans{4};
  const auto sample = sampler.Sample(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  for (VertexId v : sample.hops[0]) EXPECT_EQ(v, 5u);
}

TEST(NeighborhoodSamplerTest, SampledVerticesAreNeighbors) {
  const AttributedGraph g = MakeStar();
  LocalNeighborSource source(g);
  NeighborhoodSampler sampler;
  const std::vector<VertexId> roots{0};
  const std::vector<uint32_t> fans{16};
  const auto sample = sampler.Sample(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  for (VertexId v : sample.hops[0]) {
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 4u);
  }
}

TEST(NeighborhoodSamplerTest, WeightedPrefersHeavyEdges) {
  const AttributedGraph g = MakeStar();  // weight of 0->4 is 4x that of 0->1
  LocalNeighborSource source(g);
  NeighborhoodSampler sampler(NeighborStrategy::kWeighted);
  const std::vector<VertexId> roots{0};
  const std::vector<uint32_t> fans{4000};
  const auto sample = sampler.Sample(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  size_t heavy = 0, light = 0;
  for (VertexId v : sample.hops[0]) {
    if (v == 4) ++heavy;
    if (v == 1) ++light;
  }
  EXPECT_GT(heavy, light * 2);
}

TEST(NeighborhoodSamplerTest, TopKIsDeterministicHeaviest) {
  const AttributedGraph g = MakeStar();
  LocalNeighborSource source(g);
  NeighborhoodSampler sampler(NeighborStrategy::kTopK);
  const std::vector<VertexId> roots{0};
  const std::vector<uint32_t> fans{2};
  const auto sample = sampler.Sample(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  // Ranks 0 and 1 of the weights {1,2,3,4} are vertices 4 and 3.
  std::multiset<VertexId> got(sample.hops[0].begin(), sample.hops[0].end());
  EXPECT_TRUE(got.count(4));
  EXPECT_TRUE(got.count(3));
}

TEST(NeighborhoodSamplerTest, TypeRestrictedSampling) {
  auto taobao = std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  const EdgeType click = taobao.schema().EdgeTypeId("click").value();
  LocalNeighborSource source(taobao);
  // Find a user with click edges.
  VertexId root = kInvalidVertex;
  for (VertexId v = 0; v < taobao.num_vertices(); ++v) {
    if (!taobao.OutNeighbors(v, click).empty()) {
      root = v;
      break;
    }
  }
  ASSERT_NE(root, kInvalidVertex);
  NeighborhoodSampler sampler;
  const std::vector<VertexId> roots{root};
  const std::vector<uint32_t> fans{8};
  const auto sample = sampler.Sample(source, roots, click, fans);
  std::set<VertexId> click_targets;
  for (const Neighbor& nb : taobao.OutNeighbors(root, click)) {
    click_targets.insert(nb.dst);
  }
  for (VertexId v : sample.hops[0]) {
    EXPECT_TRUE(click_targets.count(v)) << v;
  }
}

TEST(NegativeSamplerTest, ExcludesPositive) {
  const AttributedGraph g = MakeStar();
  NegativeSampler sampler(g, {1, 2, 3, 4});
  for (int i = 0; i < 50; ++i) {
    for (VertexId v : sampler.Sample(3, 2)) EXPECT_NE(v, 2u);
  }
}

TEST(NegativeSamplerTest, DegreeBiased) {
  // Vertex 0 of the star has degree 4 + in 0; vertices 1..4 have in-degree
  // 1. With power 0.75, 0 should be sampled most often.
  const AttributedGraph g = MakeStar();
  NegativeSampler sampler(g, {0, 1, 2, 3, 4, 5});
  std::unordered_map<VertexId, int> counts;
  for (VertexId v : sampler.Sample(20000, kInvalidVertex)) ++counts[v];
  EXPECT_GT(counts[0], counts[5]);
}

TEST(NegativeSamplerTest, EmptyCandidatesSafe) {
  const AttributedGraph g = MakeStar();
  NegativeSampler sampler(g, {});
  EXPECT_TRUE(sampler.Sample(5, 0).empty());
}

TEST(DynamicWeightedSamplerTest, InitialDistributionFollowsWeights) {
  DynamicWeightedSampler sampler({10, 11}, {1.0, 9.0}, 16);
  int heavy = 0;
  for (int i = 0; i < 10000; ++i) {
    if (sampler.Sample() == 11) ++heavy;
  }
  EXPECT_NEAR(heavy / 10000.0, 0.9, 0.03);
}

TEST(DynamicWeightedSamplerTest, BackwardUpdateShiftsDistribution) {
  DynamicWeightedSampler sampler({10, 11}, {1.0, 1.0}, /*rebuild_every=*/1);
  sampler.Update(11, 9.0);  // w(11) = 10
  EXPECT_DOUBLE_EQ(sampler.WeightOf(11), 10.0);
  int heavy = 0;
  for (int i = 0; i < 10000; ++i) {
    if (sampler.Sample() == 11) ++heavy;
  }
  EXPECT_GT(heavy, 8500);
}

TEST(DynamicWeightedSamplerTest, WeightsClampedAtZero) {
  DynamicWeightedSampler sampler({1, 2}, {1.0, 1.0}, 1);
  sampler.Update(1, -5.0);
  EXPECT_DOUBLE_EQ(sampler.WeightOf(1), 0.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.Sample(), 2u);
}

TEST(DynamicWeightedSamplerTest, LazyRebuildBatchesUpdates) {
  DynamicWeightedSampler sampler({1, 2}, {1.0, 1.0}, /*rebuild_every=*/10);
  for (int i = 0; i < 9; ++i) sampler.Update(2, 1.0);
  EXPECT_EQ(sampler.updates_since_rebuild(), 9u);
  sampler.Update(2, 1.0);  // triggers rebuild
  EXPECT_EQ(sampler.updates_since_rebuild(), 0u);
}

TEST(DynamicWeightedSamplerTest, UnknownVertexUpdateIgnored) {
  DynamicWeightedSampler sampler({1}, {1.0}, 1);
  sampler.Update(99, 5.0);
  EXPECT_DOUBLE_EQ(sampler.WeightOf(99), 0.0);
  EXPECT_DOUBLE_EQ(sampler.WeightOf(1), 1.0);
}

// ---------------------------------------------------------------------------
// Batched neighbor access through the sampling layer.

AttributedGraph MakeClusterGraph(VertexId n) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = n;
  cfg.avg_degree = 8;
  cfg.seed = 21;
  return std::move(gen::ChungLu(cfg)).value();
}

TEST(NeighborSourceTest, LocalBatchMatchesPerVertex) {
  const auto expect_matches = [](LocalNeighborSource& source,
                                 std::span<const VertexId> vertices,
                                 EdgeType type) {
    BatchResult batch;
    source.NeighborsBatch(vertices, type, &batch);
    ASSERT_EQ(batch.size(), vertices.size());
    for (size_t i = 0; i < vertices.size(); ++i) {
      const auto want = type == kAllEdgeTypes
                            ? source.Neighbors(vertices[i])
                            : source.Neighbors(vertices[i], type);
      ASSERT_EQ(batch[i].size(), want.size()) << "slot " << i;
      EXPECT_TRUE(batch[i].empty() ||
                  std::memcmp(batch[i].data(), want.data(),
                              want.size() * sizeof(Neighbor)) == 0)
          << "slot " << i;
    }
  };

  const AttributedGraph g = MakeStar();
  LocalNeighborSource star(g);
  expect_matches(star, std::vector<VertexId>{0, 5, 0, 3}, kAllEdgeTypes);

  // Typed reads: a frontier with duplicates, in descending id order, over
  // the click adjacency of a heterogeneous graph.
  auto taobao = std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  const EdgeType click = taobao.schema().EdgeTypeId("click").value();
  std::vector<VertexId> clickers;
  for (VertexId v = 0; v < taobao.num_vertices() && clickers.size() < 4;
       ++v) {
    if (!taobao.OutNeighbors(v, click).empty()) clickers.push_back(v);
  }
  ASSERT_EQ(clickers.size(), 4u);
  const std::vector<VertexId> frontier{clickers[3], clickers[3], clickers[2],
                                       clickers[1], clickers[1], clickers[0]};
  LocalNeighborSource typed(taobao);
  expect_matches(typed, frontier, click);
}

TEST(NeighborSourceTest, PerVertexAdapterFallsBackToDefaultBatch) {
  const AttributedGraph g = MakeStar();
  LocalNeighborSource local(g);
  PerVertexNeighborSource adapter(local);
  const std::vector<VertexId> vertices{0, 1, 5};
  BatchResult batch;
  adapter.NeighborsBatch(vertices, kAllEdgeTypes, &batch);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].size(), 4u);
  EXPECT_EQ(batch[1].size(), 0u);
  EXPECT_EQ(batch[2].size(), 0u);
}

TEST(NeighborhoodSamplerTest, DistributedBatchedMatchesGraphData) {
  const AttributedGraph g = MakeClusterGraph(1200);
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 3)).value();
  CommStats stats;
  DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, 13);
  std::vector<VertexId> roots(100);
  std::iota(roots.begin(), roots.end(), 0);
  const std::vector<uint32_t> fans{4};
  const auto sample = sampler.Sample(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  for (size_t i = 0; i < roots.size(); ++i) {
    std::set<VertexId> nbrs;
    for (const Neighbor& nb : g.OutNeighbors(roots[i])) nbrs.insert(nb.dst);
    for (uint32_t j = 0; j < 4; ++j) {
      const VertexId u = sample.hops[0][i * 4 + j];
      EXPECT_TRUE(u == roots[i] || nbrs.count(u));
    }
  }
  // One NeighborsBatch per hop: the remote residue coalesced to at most
  // num_workers - 1 requests.
  EXPECT_LE(stats.remote_batches.load(), 2u);
  EXPECT_GT(stats.remote_reads.load(), 0u);
}

// Acceptance criteria of the batched-pipeline refactor: a 2-hop
// NEIGHBORHOOD sample (batch 512, fan-out 10x10) on a 4-worker cluster with
// no cache must coalesce remote reads into >= 50x fewer messages, and the
// modeled time must beat the per-vertex path by >= 5x at default latencies.
TEST(BatchedPipelineTest, CoalescingBeatsPerVertexByModeledTime) {
  const AttributedGraph g = MakeClusterGraph(4000);
  auto cluster = std::move(Cluster::Build(g, EdgeCutPartitioner(), 4)).value();

  std::vector<VertexId> all(g.num_vertices());
  std::iota(all.begin(), all.end(), 0);
  TraverseSampler traverse(all, 3);
  const auto seeds = traverse.Sample(512);
  const std::vector<uint32_t> fans{10, 10};

  CommStats batched_stats;
  {
    DistributedNeighborSource source(cluster, 0, &batched_stats);
    NeighborhoodSampler hood(NeighborStrategy::kUniform, 5);
    hood.Sample(source, seeds, NeighborhoodSampler::kAllEdgeTypes, fans);
  }
  CommStats pv_stats;
  {
    DistributedNeighborSource inner(cluster, 0, &pv_stats);
    PerVertexNeighborSource source(inner);
    NeighborhoodSampler hood(NeighborStrategy::kUniform, 5);
    hood.Sample(source, seeds, NeighborhoodSampler::kAllEdgeTypes, fans);
  }

  // The batched path coalesced: 2 hops x <= 3 non-local workers, against
  // thousands of remote reads.
  const uint64_t batches = batched_stats.remote_batches.load();
  const uint64_t remote = batched_stats.remote_reads.load();
  EXPECT_GT(batches, 0u);
  EXPECT_LE(batches, 2u * 3u);
  EXPECT_GE(remote, 50u * batches);
  EXPECT_EQ(batched_stats.batched_remote_reads.load(), remote);
  // The per-vertex path batched nothing.
  EXPECT_EQ(pv_stats.remote_batches.load(), 0u);
  EXPECT_EQ(pv_stats.batched_remote_reads.load(), 0u);

  const CommModel model;  // default latencies
  const double batched_ms = model.ModeledMillis(batched_stats);
  const double pv_ms = model.ModeledMillis(pv_stats);
  EXPECT_GE(pv_ms, 5.0 * batched_ms)
      << "batched=" << batched_ms << "ms per-vertex=" << pv_ms << "ms";
}

}  // namespace
}  // namespace aligraph
