// Tests for the subgraph-block execution path: SampledBlock relabeling
// invariants, block-vs-flat draw equivalence, bit-identity of SageLayer's
// block and per-slot AGGREGATE / COMBINE against a separate reference, golden
// fingerprints of the end-to-end GraphSAGE / GCN embeddings, feature
// gathering through every source, and full-shape degradation under fault
// injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "algo/gnn.h"
#include "block/feature_source.h"
#include "block/sampled_block.h"
#include "cluster/cluster.h"
#include "fault/fault_injector.h"
#include "fault/retry_policy.h"
#include "gen/taobao.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "ops/hop_cache.h"
#include "partition/partitioner.h"
#include "proptest.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace {

std::vector<VertexId> RandomRoots(proptest::PropContext& ctx,
                                  const AttributedGraph& graph,
                                  size_t count) {
  std::vector<VertexId> roots(count);
  for (VertexId& r : roots) {
    r = static_cast<VertexId>(ctx.rng.Uniform(graph.num_vertices()));
  }
  return roots;
}

::testing::AssertionResult BitEqual(const nn::Matrix& a,
                                    const nn::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  if (a.empty()) return ::testing::AssertionSuccess();
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (size_t r = 0; r < a.rows(); ++r) {
      for (size_t c = 0; c < a.cols(); ++c) {
        const float av = a.At(r, c);
        const float bv = b.At(r, c);
        if (std::memcmp(&av, &bv, sizeof(float)) != 0) {
          return ::testing::AssertionFailure()
                 << "first differing element at (" << r << ", " << c
                 << "): " << av << " vs " << bv;
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Relabeling invariants.

ALIGRAPH_PROP(BlockProps, RelabelIsBijection, 12) {
  const AttributedGraph graph = proptest::RandomGraph(ctx);
  LocalNeighborSource source(graph);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, ctx.rng.Next());
  const auto roots = RandomRoots(ctx, graph, 4 + ctx.rng.Uniform(12));
  const std::vector<uint32_t> fans{
      static_cast<uint32_t>(1 + ctx.rng.Uniform(5)),
      static_cast<uint32_t>(1 + ctx.rng.Uniform(4))};
  const block::SampledBlock blk = sampler.SampleBlock(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);

  const size_t n = blk.num_vertices();
  ASSERT_GT(n, 0u);
  ASSERT_LE(n, blk.total_slots());
  EXPECT_GE(blk.dedup_ratio(), 1.0);

  // globals() carries each vertex exactly once.
  std::unordered_set<VertexId> seen;
  for (uint32_t local = 0; local < n; ++local) {
    const VertexId g = blk.global_of(local);
    EXPECT_TRUE(seen.insert(g).second) << "duplicate global " << g;
  }

  // Every slot (roots, CSR dst and src) refers to a valid local id.
  for (const uint32_t l : blk.root_locals()) EXPECT_LT(l, n);
  for (const block::BlockHop& hop : blk.hops()) {
    ASSERT_EQ(hop.offsets.size(), hop.dst.size() + 1);
    for (size_t r = 0; r + 1 < hop.offsets.size(); ++r) {
      EXPECT_EQ(hop.offsets[r + 1] - hop.offsets[r], hop.fan);
    }
    for (const uint32_t l : hop.dst) EXPECT_LT(l, n);
    for (const uint32_t l : hop.src) EXPECT_LT(l, n);
  }
}

// Build's relabelling against a std::map reference on hand-built blocks
// whose ids include runs that collide modulo the relabel table size, so
// probe chains are long and wrap around.
ALIGRAPH_PROP(BlockProps, RelabelMatchesMapReference, 16) {
  const size_t num_roots = 1 + ctx.rng.Uniform(12);
  const std::vector<uint32_t> fans{
      static_cast<uint32_t>(1 + ctx.rng.Uniform(5)),
      static_cast<uint32_t>(1 + ctx.rng.Uniform(4))};
  const size_t slots =
      num_roots * (1 + fans[0] + static_cast<size_t>(fans[0]) * fans[1]);
  const VertexId table_size =
      static_cast<VertexId>(std::bit_ceil(std::max<size_t>(2 * slots, 2)));

  // Pool: a collision run base + j * table_size, random ids, and ids near
  // the top of the id space.
  std::vector<VertexId> pool;
  const VertexId base = static_cast<VertexId>(ctx.rng.Uniform(table_size));
  for (VertexId j = 0; j < 16; ++j) pool.push_back(base + j * table_size);
  for (int j = 0; j < 16; ++j) {
    pool.push_back(static_cast<VertexId>(ctx.rng.Next()));
  }
  for (VertexId j = 0; j < 4; ++j) pool.push_back(~VertexId{0} - j);
  auto draw = [&] { return pool[ctx.rng.Uniform(pool.size())]; };

  std::vector<VertexId> roots(num_roots);
  for (VertexId& r : roots) r = draw();
  std::vector<std::vector<VertexId>> hops(fans.size());
  size_t width = num_roots;
  for (size_t k = 0; k < fans.size(); ++k) {
    width *= fans[k];
    hops[k].resize(width);
    for (VertexId& v : hops[k]) v = draw();
  }
  const block::SampledBlock blk = block::SampledBlock::Build(roots, hops, fans);

  // Reference relabelling: first-appearance order over roots, then hops.
  std::map<VertexId, uint32_t> ref;
  std::vector<VertexId> order;
  auto note = [&](VertexId v) {
    if (ref.try_emplace(v, static_cast<uint32_t>(order.size())).second) {
      order.push_back(v);
    }
  };
  for (const VertexId r : roots) note(r);
  for (const auto& hop : hops) {
    for (const VertexId v : hop) note(v);
  }

  ASSERT_EQ(blk.num_vertices(), ref.size());
  EXPECT_TRUE(std::equal(order.begin(), order.end(), blk.globals().begin()));
  // Every root slot and every hop's src entry carries the reference id.
  ASSERT_EQ(blk.root_locals().size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(blk.root_locals()[i], ref.at(roots[i])) << "root slot " << i;
  }
  ASSERT_EQ(blk.hops().size(), hops.size());
  for (size_t k = 0; k < hops.size(); ++k) {
    const std::vector<uint32_t>& src = blk.hops()[k].src;
    ASSERT_EQ(src.size(), hops[k].size());
    for (size_t j = 0; j < src.size(); ++j) {
      EXPECT_EQ(src[j], ref.at(hops[k][j])) << "hop " << k << " slot " << j;
    }
  }
}

ALIGRAPH_PROP(BlockProps, CsrEdgesExistInGraph, 12) {
  const AttributedGraph graph = proptest::RandomGraph(ctx);
  LocalNeighborSource source(graph);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, ctx.rng.Next());
  const auto roots = RandomRoots(ctx, graph, 4 + ctx.rng.Uniform(12));
  const std::vector<uint32_t> fans{
      static_cast<uint32_t>(1 + ctx.rng.Uniform(5)),
      static_cast<uint32_t>(1 + ctx.rng.Uniform(4))};
  const block::SampledBlock blk = sampler.SampleBlock(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);

  // Each CSR edge (dst slot r -> src e) must be a real out-edge of the
  // vertex occupying the slot; vertices with no suitable neighbor repeat
  // themselves (the shape-preserving fallback), so src == dst is also
  // legal — but only when it actually is the fallback or a real self-loop.
  for (const block::BlockHop& hop : blk.hops()) {
    for (size_t r = 0; r < hop.num_dst(); ++r) {
      const VertexId from = blk.global_of(hop.dst[r]);
      std::unordered_set<VertexId> adjacency;
      for (const Neighbor& nb : graph.OutNeighbors(from)) {
        adjacency.insert(nb.dst);
      }
      for (uint32_t e = hop.offsets[r]; e < hop.offsets[r + 1]; ++e) {
        const VertexId to = blk.global_of(hop.src[e]);
        EXPECT_TRUE(adjacency.count(to) > 0 ||
                    (to == from && adjacency.empty()))
            << "edge " << from << " -> " << to
            << " is neither a graph edge nor the empty-adjacency fallback";
      }
    }
  }
}

ALIGRAPH_PROP(BlockProps, BlockMatchesFlatDraws, 12) {
  const AttributedGraph graph = proptest::RandomGraph(ctx);
  LocalNeighborSource source_a(graph);
  LocalNeighborSource source_b(graph);
  const uint64_t seed = ctx.rng.Next();
  NeighborhoodSampler flat_sampler(NeighborStrategy::kUniform, seed);
  NeighborhoodSampler block_sampler(NeighborStrategy::kUniform, seed);
  const auto roots = RandomRoots(ctx, graph, 4 + ctx.rng.Uniform(12));
  const std::vector<uint32_t> fans{
      static_cast<uint32_t>(1 + ctx.rng.Uniform(5)),
      static_cast<uint32_t>(1 + ctx.rng.Uniform(4))};

  const NeighborhoodSample flat = flat_sampler.Sample(
      source_a, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  const block::SampledBlock blk = block_sampler.SampleBlock(
      source_b, roots, NeighborhoodSampler::kAllEdgeTypes, fans);

  // Same seed, same draws: the block is the flat sample relabeled.
  ASSERT_EQ(blk.root_locals().size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ(blk.global_of(blk.root_locals()[i]), roots[i]);
  }
  ASSERT_EQ(blk.hops().size(), flat.hops.size());
  for (size_t k = 0; k < flat.hops.size(); ++k) {
    const block::BlockHop& hop = blk.hops()[k];
    ASSERT_EQ(hop.src.size(), flat.hops[k].size());
    for (size_t s = 0; s < hop.src.size(); ++s) {
      EXPECT_EQ(blk.global_of(hop.src[s]), flat.hops[k][s]);
    }
    // Level k's destinations are level k-1's slots, in slot order.
    const std::vector<uint32_t>& prev =
        k == 0 ? std::vector<uint32_t>(blk.root_locals().begin(),
                                       blk.root_locals().end())
               : blk.hops()[k - 1].src;
    ASSERT_EQ(hop.dst.size(), prev.size());
    for (size_t s = 0; s < prev.size(); ++s) {
      EXPECT_EQ(hop.dst[s], prev[s]);
    }
  }
}

// ---------------------------------------------------------------------------
// Operator bit-identity: SageLayer::ForwardBlock (CSR-indexed) and
// SageLayer::Forward (per-slot matrices) against a separate reference.

// Both SageLayer entry points write [self | AGG] straight into the layer
// input. They must equal, bit for bit, the separate formulation: self rows
// gathered per dst slot, an aggregate matrix built edge by edge in CSR order
// (the mean summed from +0, the maxpool keeping each column's first strict
// maximum and its slot), and the two concatenated.
ALIGRAPH_PROP(BlockProps, SageForwardBitIdenticalToGatherConcat, 6) {
  const AttributedGraph graph = proptest::RandomGraph(ctx);
  LocalNeighborSource source(graph);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, ctx.rng.Next());
  const auto roots = RandomRoots(ctx, graph, 4 + ctx.rng.Uniform(8));
  const std::vector<uint32_t> fans{
      static_cast<uint32_t>(1 + ctx.rng.Uniform(5)),
      static_cast<uint32_t>(1 + ctx.rng.Uniform(3))};
  const block::SampledBlock blk = sampler.SampleBlock(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);

  for (const bool maxpool : {false, true}) {
    for (const size_t d : {3, 16, 32}) {
      Rng mrng(ctx.rng.Next());
      const nn::Matrix rows =
          nn::Matrix::Gaussian(blk.num_vertices(), d, 1.0f, mrng);
      for (const block::BlockHop& hop : blk.hops()) {
        const nn::Matrix self = block::GatherRows(rows, hop.dst);
        const nn::Matrix neighbors = block::GatherRows(rows, hop.src);
        nn::Matrix agg(hop.num_dst(), d);
        std::vector<uint32_t> argmax(maxpool ? hop.num_dst() * d : 0);
        const float inv = 1.0f / static_cast<float>(hop.fan);
        for (size_t i = 0; i < hop.num_dst(); ++i) {
          const uint32_t begin = hop.offsets[i];
          for (uint32_t e = begin; e < hop.offsets[i + 1]; ++e) {
            for (size_t j = 0; j < d; ++j) {
              const float v = neighbors.At(e, j);
              if (!maxpool) {
                agg.At(i, j) += inv * v;
              } else if (e == begin || v > agg.At(i, j)) {
                agg.At(i, j) = v;
                argmax[i * d + j] = e - begin;
              }
            }
          }
        }
        const nn::Matrix input = nn::ConcatCols(self, agg);

        Rng wrng(99);
        algo::SageLayer fused(d, 8, maxpool, wrng);
        Rng wrng2(99);
        algo::SageLayer separate(d, 8, maxpool, wrng2);
        algo::SageLayer::Cache c_fused, c_separate;
        const nn::Matrix out_fused = fused.ForwardBlock(rows, hop, &c_fused);
        const nn::Matrix out_separate =
            separate.Forward(self, neighbors, hop.fan, &c_separate);
        const char* what = maxpool ? "maxpool" : "mean";
        EXPECT_TRUE(BitEqual(c_fused.input, input)) << what << " d=" << d;
        EXPECT_TRUE(BitEqual(c_separate.input, input)) << what << " d=" << d;
        EXPECT_TRUE(BitEqual(out_fused, out_separate)) << what << " d=" << d;
        EXPECT_EQ(c_fused.argmax, argmax) << what << " d=" << d;
        EXPECT_EQ(c_separate.argmax, argmax) << what << " d=" << d;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end golden fingerprints. Each constant is the FNV-1a hash (float
// bit patterns, row-major, as serve_engine.cc's FingerprintMatrix) of a
// model's Embed output on SmallTaobao(). They were recorded while the flat
// map-based reference path and the sequential trainer loop still existed
// and produced the same bits, so they pin the block path's draws, float-op
// order and training schedule to that reference. Any change to the
// sampler's RNG sequence, the aggregation / propagation order or the batch
// order breaks them.

algo::GnnConfig SmallConfig(const std::string& aggregator) {
  algo::GnnConfig config;
  config.dim = 8;
  config.feature_dim = 8;
  config.fanout1 = 3;
  config.fanout2 = 2;
  config.epochs = 1;
  config.batch_size = 8;
  config.batches_per_epoch = 6;
  config.aggregator = aggregator;
  config.seed = 77;
  return config;
}

AttributedGraph SmallTaobao() {
  auto graph = gen::Taobao(gen::TaobaoSmallConfig(0.05));
  ALIGRAPH_CHECK(graph.ok()) << graph.status().ToString();
  return std::move(*graph);
}

uint64_t Fingerprint(const nn::Matrix& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (const float f : m.Row(i)) {
      uint32_t bits;
      std::memcpy(&bits, &f, sizeof(bits));
      for (int shift = 0; shift < 32; shift += 8) {
        h ^= (bits >> shift) & 0xffu;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

uint64_t GraphSageFingerprint(const std::string& aggregator) {
  algo::GraphSage model(SmallConfig(aggregator));
  auto embedded = model.Embed(SmallTaobao());
  ALIGRAPH_CHECK(embedded.ok()) << embedded.status().ToString();
  return Fingerprint(*embedded);
}

uint64_t GcnFingerprint(algo::GcnMode mode) {
  algo::Gcn::Config config;
  config.base = SmallConfig("mean");
  config.mode = mode;
  config.layer_samples = 64;
  auto embedded = algo::Gcn(config).Embed(SmallTaobao());
  ALIGRAPH_CHECK(embedded.ok()) << embedded.status().ToString();
  return Fingerprint(*embedded);
}

constexpr uint64_t kGraphSageMeanGolden = 0x189646a0c24ab4feULL;
constexpr uint64_t kGraphSageMaxPoolGolden = 0x38014a87be821805ULL;
constexpr uint64_t kGcnFullGolden = 0x253cfbd8d7f3208aULL;
constexpr uint64_t kFastGcnGolden = 0xa8ed2f0ded93cb85ULL;
constexpr uint64_t kAsGcnGolden = 0xe6025cab72102eb9ULL;

TEST(BlockGoldenTest, GraphSageMean) {
  EXPECT_EQ(GraphSageFingerprint("mean"), kGraphSageMeanGolden);
}

TEST(BlockGoldenTest, GraphSageMaxPool) {
  EXPECT_EQ(GraphSageFingerprint("maxpool"), kGraphSageMaxPoolGolden);
}

TEST(BlockGoldenTest, GcnFull) {
  EXPECT_EQ(GcnFingerprint(algo::GcnMode::kFull), kGcnFullGolden);
}

TEST(BlockGoldenTest, FastGcn) {
  EXPECT_EQ(GcnFingerprint(algo::GcnMode::kFastGcn), kFastGcnGolden);
}

TEST(BlockGoldenTest, AsGcn) {
  EXPECT_EQ(GcnFingerprint(algo::GcnMode::kAsGcn), kAsGcnGolden);
}

// ---------------------------------------------------------------------------
// Feature sources.

TEST(BlockFeatureSourceTest, ClusterGatherMatchesPerVertexPayloads) {
  const AttributedGraph graph = SmallTaobao();
  auto cluster =
      std::move(Cluster::Build(graph, EdgeCutPartitioner(), 3)).value();
  const size_t dim = 12;
  CommStats stats;
  block::ClusterFeatureSource source(cluster, /*worker=*/0, dim, &stats);

  std::vector<VertexId> vertices;
  for (VertexId v = 0; v < graph.num_vertices() && vertices.size() < 64;
       v += 7) {
    vertices.push_back(v);
  }
  nn::Matrix out(vertices.size(), dim);
  ASSERT_TRUE(source.Gather(vertices, &out).ok());

  // Row i is vertex i's raw attribute payload, zero-padded / truncated.
  for (size_t i = 0; i < vertices.size(); ++i) {
    const auto payload = graph.VertexFeatures(vertices[i]);
    for (size_t j = 0; j < dim; ++j) {
      const float expected = j < payload.size() ? payload[j] : 0.0f;
      EXPECT_EQ(out.At(i, j), expected) << "vertex " << vertices[i];
    }
  }

  // The gather coalesced: at most one message per destination worker, and
  // the remote residue traveled batched rather than as per-vertex RPCs.
  EXPECT_LE(stats.remote_batches.load(), 2u);
  EXPECT_GT(stats.batched_remote_reads.load(), 0u);
  EXPECT_EQ(stats.batched_remote_reads.load(), stats.remote_reads.load());
}

TEST(BlockFeatureSourceTest, GraphAndMatrixSourcesAgree) {
  const AttributedGraph graph = SmallTaobao();
  const size_t dim = 8;
  block::GraphFeatureSource graph_source(graph, dim);

  nn::Matrix table(graph.num_vertices(), dim);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto payload = graph.VertexFeatures(v);
    for (size_t j = 0; j < dim && j < payload.size(); ++j) {
      table.At(v, j) = payload[j];
    }
  }
  block::MatrixFeatureSource matrix_source(table);

  std::vector<VertexId> vertices{0, 5, 9, 5, 33};
  nn::Matrix a(vertices.size(), dim);
  nn::Matrix b(vertices.size(), dim);
  ASSERT_TRUE(graph_source.Gather(vertices, &a).ok());
  ASSERT_TRUE(matrix_source.Gather(vertices, &b).ok());
  EXPECT_TRUE(BitEqual(a, b));
}

// ---------------------------------------------------------------------------
// Fault degradation: failed reads must never change the block's shape.

TEST(BlockFaultTest, DegradedSampleKeepsFullShape) {
  const AttributedGraph graph = SmallTaobao();
  auto cluster =
      std::move(Cluster::Build(graph, EdgeCutPartitioner(), 2)).value();

  // Every request to worker 1 fails more attempts than the policy allows:
  // all remote reads to it degrade permanently.
  FaultConfig fault;
  fault.seed = 13;
  fault.schedule.push_back(
      {/*worker=*/1, FaultKind::kTransient, /*fail_first_attempts=*/99});
  RetryPolicy policy;
  policy.max_attempts = 2;
  cluster.InstallFaultInjection(fault, policy);

  CommStats stats;
  DistributedNeighborSource source(cluster, /*worker=*/0, &stats);
  block::ClusterFeatureSource features(cluster, /*worker=*/0, /*dim=*/8,
                                       &stats);

  std::vector<VertexId> roots;
  for (VertexId v = 0; v < graph.num_vertices() && roots.size() < 16; ++v) {
    if (cluster.OwnerOf(v) == 0) roots.push_back(v);
  }
  ASSERT_EQ(roots.size(), 16u);

  NeighborhoodSampler sampler(NeighborStrategy::kUniform, 5);
  const std::vector<uint32_t> fans{4, 3};
  const block::SampledBlock blk = sampler.SampleBlock(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  const nn::Matrix x =
      block::GatherBlockFeatures(blk, features, /*row_cache=*/nullptr);

  // Shapes are exactly what an un-faulted run would produce.
  ASSERT_EQ(blk.hops().size(), 2u);
  EXPECT_EQ(blk.hops()[0].src.size(), roots.size() * 4);
  EXPECT_EQ(blk.hops()[1].src.size(), roots.size() * 4 * 3);
  EXPECT_EQ(blk.hops()[1].dst.size(), roots.size() * 4);
  EXPECT_EQ(x.rows(), blk.num_vertices());
  EXPECT_EQ(x.cols(), 8u);

  // And the degradation was recorded rather than hidden.
  EXPECT_TRUE(blk.partial());
  EXPECT_GT(blk.degraded_draws(), 0u);
  EXPECT_GT(stats.failed_reads.load(), 0u);
}

// ---------------------------------------------------------------------------
// Observability: duplicate-ratio histogram, dedup gauge, gather counter,
// cross-batch row reuse.

TEST(BlockObsTest, SamplerAndBlockMetricsRecorded) {
  obs::MetricsRegistry registry;
  obs::SetDefault(&registry);

  const AttributedGraph graph = SmallTaobao();
  LocalNeighborSource source(graph);
  NeighborhoodSampler sampler(NeighborStrategy::kUniform, 3);
  // Duplicate-heavy roots so the duplicate ratio is well above 1.
  const std::vector<VertexId> roots{0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<uint32_t> fans{4, 2};
  block::GraphFeatureSource features(graph, /*dim=*/8);
  const block::SampledBlock blk = sampler.SampleBlock(
      source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  (void)block::GatherBlockFeatures(blk, features, /*row_cache=*/nullptr);

  // One duplicate-ratio record per hop: hop slots / distinct vertices.
  double dup_sum = 0;
  for (const block::BlockHop& hop : blk.hops()) {
    const std::set<uint32_t> distinct(hop.src.begin(), hop.src.end());
    const double slots = static_cast<double>(hop.src.size());
    dup_sum += slots / static_cast<double>(distinct.size());
  }
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.histograms.at("sample.frontier_dup_ratio").count, 2u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("sample.frontier_dup_ratio").sum,
                   dup_sum);
  EXPECT_EQ(snap.histograms.at("sample.hop_latency_us").count, 2u);
  EXPECT_EQ(snap.histograms.at("sample.frontier_size").count, 2u);
  EXPECT_EQ(snap.histograms.at("sample.frontier_size").sum, 8.0 + 8 * 4);
  EXPECT_EQ(snap.histograms.at("sample.fan_out").sum, 4.0 + 2);
  EXPECT_EQ(snap.histograms.at("block.build_us").count, 1u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("block.dedup_ratio"), blk.dedup_ratio());
  EXPECT_EQ(snap.counters.at("block.gather_bytes"),
            blk.num_vertices() * 8 * sizeof(float));

  obs::SetDefault(nullptr);
}

TEST(BlockObsTest, BuildRecordsPerHopDupRatio) {
  obs::MetricsRegistry registry;
  obs::SetDefault(&registry);

  // Hop 0: 6 slots over {3, 9, 7} -> 2. Hop 1: 12 slots over {1, 2, 9}
  // -> 4. Roots are not a hop and record nothing.
  const std::vector<VertexId> roots{7, 7, 3};
  const std::vector<std::vector<VertexId>> hops{
      {3, 9, 9, 9, 7, 3}, {1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 9}};
  const std::vector<uint32_t> fans{2, 2};
  const block::SampledBlock blk = block::SampledBlock::Build(roots, hops, fans);
  obs::SetDefault(nullptr);

  const obs::HistogramSnapshot dup =
      registry.Snapshot().histograms.at("sample.frontier_dup_ratio");
  EXPECT_EQ(dup.count, 2u);
  EXPECT_DOUBLE_EQ(dup.sum, 2.0 + 4.0);
  EXPECT_EQ(blk.num_vertices(), 5u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("block.dedup_ratio")->Value(), 21.0 / 5.0);
  EXPECT_EQ(registry.GetHistogram("block.build_us")->Count(), 1u);
}

TEST(BlockObsTest, HopCacheReusesRowsAcrossBatches) {
  obs::MetricsRegistry registry;
  obs::SetDefault(&registry);

  const size_t dim = 4;
  ops::HopEmbeddingCache cache(dim);
  const std::vector<VertexId> first{10, 20, 30};
  nn::Matrix rows(first.size(), dim);
  for (size_t i = 0; i < first.size(); ++i) rows.Row(i)[0] = float(i + 1);
  cache.InsertRows(/*hop=*/0, first, rows);

  // Second batch overlaps the first on {20, 30}: those rows come back from
  // the cache and are counted as reused.
  const std::vector<VertexId> second{20, 30, 40};
  nn::Matrix out(second.size(), dim);
  std::vector<uint8_t> present;
  const size_t found = cache.LookupRows(0, second, &out, &present);
  EXPECT_EQ(found, 2u);
  EXPECT_EQ(present, (std::vector<uint8_t>{1, 1, 0}));
  EXPECT_EQ(out.At(0, 0), 2.0f);
  EXPECT_EQ(out.At(1, 0), 3.0f);
  EXPECT_EQ(out.At(2, 0), 0.0f);
  EXPECT_EQ(registry.GetCounter("block.reused_rows")->Value(), 2u);

  // InsertRows with the present mask only admits the missing slot.
  out.At(2, 0) = 7.0f;
  cache.InsertRows(0, second, out, &present);
  nn::Matrix again(1, dim);
  std::vector<uint8_t> p2;
  EXPECT_EQ(cache.LookupRows(0, std::vector<VertexId>{40}, &again, &p2), 1u);
  EXPECT_EQ(again.At(0, 0), 7.0f);

  obs::SetDefault(nullptr);
}

}  // namespace
}  // namespace aligraph
