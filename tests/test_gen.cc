// Tests for the synthetic data generators that stand in for the paper's
// Taobao / Amazon datasets and the dynamic graphs.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <span>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "gen/dynamic_gen.h"
#include "gen/powerlaw.h"
#include "gen/taobao.h"
#include "gen/zipf.h"
#include "proptest.h"

namespace aligraph {
namespace gen {
namespace {

TEST(ChungLuTest, ProducesRequestedScale) {
  ChungLuConfig cfg;
  cfg.num_vertices = 5000;
  cfg.avg_degree = 10;
  auto g = ChungLu(cfg);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 5000u);
  EXPECT_NEAR(static_cast<double>(g->num_edges()) / 5000.0, 10.0, 1.0);
}

TEST(ChungLuTest, DegreesAreHeavyTailed) {
  ChungLuConfig cfg;
  cfg.num_vertices = 20000;
  cfg.avg_degree = 8;
  cfg.gamma = 2.3;
  auto g = std::move(ChungLu(cfg)).value();
  size_t max_deg = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    max_deg = std::max(max_deg, g.OutDegree(v));
  }
  // Heavy tail: hubs far above the mean.
  EXPECT_GT(max_deg, 80u);
}

TEST(ChungLuTest, RejectsBadConfig) {
  ChungLuConfig cfg;
  cfg.num_vertices = 0;
  EXPECT_FALSE(ChungLu(cfg).ok());
  cfg.num_vertices = 10;
  cfg.gamma = 1.5;
  EXPECT_FALSE(ChungLu(cfg).ok());
}

TEST(ChungLuTest, DeterministicBySeed) {
  ChungLuConfig cfg;
  cfg.num_vertices = 500;
  auto a = std::move(ChungLu(cfg)).value();
  auto b = std::move(ChungLu(cfg)).value();
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_EQ(a.OutDegree(v), b.OutDegree(v));
  }
}

// FNV-1a over every vertex's out- then in-adjacency: degree, then each
// neighbor's dst, weight bits and attr, in storage order. Pins the whole
// generated graph, not just its degree sequence.
uint64_t AdjacencyFingerprint(const AttributedGraph& g) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint32_t word) {
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (word >> shift) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  auto mix_span = [&mix](std::span<const Neighbor> nbs) {
    mix(static_cast<uint32_t>(nbs.size()));
    for (const Neighbor& nb : nbs) {
      uint32_t bits;
      std::memcpy(&bits, &nb.weight, sizeof(bits));
      mix(nb.dst);
      mix(bits);
      mix(nb.attr);
    }
  };
  for (VertexId v = 0; v < g.num_vertices(); ++v) mix_span(g.OutNeighbors(v));
  for (VertexId v = 0; v < g.num_vertices(); ++v) mix_span(g.InNeighbors(v));
  return h;
}

// Golden values recorded from the scalar one-pair-at-a-time generator loop
// and the pair-list CSR build. Any change to the RNG stream, the self-loop
// skip, or per-vertex neighbor order breaks them.
TEST(ChungLuTest, AdjacencyFingerprintDirected) {
  ChungLuConfig cfg;
  cfg.num_vertices = 40000;
  cfg.avg_degree = 10;
  cfg.seed = 1;
  const auto g = std::move(ChungLu(cfg)).value();
  EXPECT_EQ(g.num_edges(), 400000u);
  EXPECT_EQ(AdjacencyFingerprint(g), 0x5f74ea9df76de12eULL);
}

TEST(ChungLuTest, AdjacencyFingerprintUndirected) {
  ChungLuConfig cfg;
  cfg.num_vertices = 5000;
  cfg.avg_degree = 6;
  cfg.directed = false;
  cfg.seed = 11;
  const auto g = std::move(ChungLu(cfg)).value();
  EXPECT_EQ(g.num_edges(), 30000u);
  EXPECT_EQ(AdjacencyFingerprint(g), 0xe1a2be14bf031d95ULL);
}

TEST(BarabasiAlbertTest, EveryNewVertexAttaches) {
  auto g = BarabasiAlbert(1000, 3, 1);
  ASSERT_TRUE(g.ok());
  for (VertexId v = 4; v < g->num_vertices(); ++v) {
    EXPECT_GE(g->OutDegree(v), 3u);
  }
}

TEST(BarabasiAlbertTest, RejectsTooSmall) {
  EXPECT_FALSE(BarabasiAlbert(3, 5, 1).ok());
}

TEST(TaobaoTest, SchemaMatchesPaper) {
  auto g = std::move(Taobao(TaobaoSmallConfig(0.05))).value();
  const GraphSchema& schema = g.schema();
  EXPECT_TRUE(schema.VertexTypeId("user").ok());
  EXPECT_TRUE(schema.VertexTypeId("item").ok());
  for (const char* et : {"click", "collect", "cart", "buy", "co_occur"}) {
    EXPECT_TRUE(schema.EdgeTypeId(et).ok()) << et;
  }
  EXPECT_TRUE(schema.IsHeterogeneous());
}

TEST(TaobaoTest, UserItemPartitioning) {
  TaobaoConfig cfg = TaobaoSmallConfig(0.05);
  auto g = std::move(Taobao(cfg)).value();
  const VertexType user = g.schema().VertexTypeId("user").value();
  const VertexType item = g.schema().VertexTypeId("item").value();
  EXPECT_EQ(g.VerticesOfType(user).size(), cfg.num_users);
  EXPECT_EQ(g.VerticesOfType(item).size(), cfg.num_items);
  // Behaviour edges always point user -> item.
  const EdgeType click = g.schema().EdgeTypeId("click").value();
  for (VertexId v : g.VerticesOfType(user)) {
    for (const Neighbor& nb : g.OutNeighbors(v, click)) {
      EXPECT_EQ(g.vertex_type(nb.dst), item);
    }
  }
}

TEST(TaobaoTest, AttributesDeduplicated) {
  auto g = std::move(Taobao(TaobaoSmallConfig(0.1))).value();
  // Profiles come from small pools, so distinct records << references.
  EXPECT_LT(g.vertex_attributes().num_records(),
            g.vertex_attributes().num_references() / 10);
}

TEST(TaobaoTest, LargePresetIsRoughlySixTimesSmall) {
  auto small = std::move(Taobao(TaobaoSmallConfig(0.02))).value();
  auto large = std::move(Taobao(TaobaoLargeConfig(0.02))).value();
  const double ratio = static_cast<double>(large.num_edges()) /
                       static_cast<double>(small.num_edges());
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 15.0);
}

TEST(TaobaoTest, ItemBrandCategoryReadable) {
  auto g = std::move(Taobao(TaobaoSmallConfig(0.05))).value();
  const VertexType item = g.schema().VertexTypeId("item").value();
  std::set<uint32_t> brands, cats;
  for (VertexId v : g.VerticesOfType(item)) {
    const uint32_t b = ItemBrand(g, v);
    const uint32_t c = ItemCategory(g, v);
    EXPECT_LT(b, kNumBrands);
    EXPECT_LT(c, kNumCategories);
    brands.insert(b);
    cats.insert(c);
  }
  EXPECT_GT(brands.size(), 3u);
  EXPECT_GT(cats.size(), 3u);
}

TEST(AmazonTest, MatchesTable6Shape) {
  AmazonConfig cfg;  // defaults mirror Table 6
  auto g = std::move(Amazon(cfg)).value();
  EXPECT_EQ(g.num_vertices(), 10166u);
  // Undirected: stored edges ~ 2x requested minus self-loop skips.
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 148865.0,
              148865.0 * 0.05);
  EXPECT_EQ(g.schema().num_vertex_types(), 2u);  // default + product
  EXPECT_TRUE(g.schema().EdgeTypeId("co_view").ok());
  EXPECT_TRUE(g.schema().EdgeTypeId("co_buy").ok());
}

TEST(DynamicGenTest, SnapshotsGrowMonotonically) {
  DynamicConfig cfg;
  cfg.num_vertices = 500;
  cfg.num_timestamps = 4;
  cfg.base_edges = 2000;
  cfg.normal_edges_per_step = 300;
  cfg.burst_size = 50;
  auto dg = std::move(GenerateDynamic(cfg)).value();
  ASSERT_EQ(dg.num_timestamps(), 4u);
  for (Timestamp t = 2; t <= 4; ++t) {
    EXPECT_GT(dg.Snapshot(t).num_edges(), dg.Snapshot(t - 1).num_edges());
  }
}

TEST(DynamicGenTest, BurstAndNormalLabelsPresent) {
  DynamicConfig cfg;
  cfg.num_vertices = 500;
  cfg.num_timestamps = 3;
  auto dg = std::move(GenerateDynamic(cfg)).value();
  size_t normal = 0, burst = 0;
  for (Timestamp t = 2; t <= 3; ++t) {
    for (const DynamicEdge& e : dg.DeltaAt(t)) {
      (e.kind == EvolutionKind::kBurst ? burst : normal) += 1;
    }
  }
  EXPECT_GT(normal, 0u);
  EXPECT_GT(burst, 0u);
  // Bursts are the rare class.
  EXPECT_LT(burst, normal);
}

TEST(DynamicGenTest, BurstsConcentrateOnHubs) {
  DynamicConfig cfg;
  cfg.num_vertices = 1000;
  cfg.num_timestamps = 2;
  cfg.bursts_per_step = 1;
  cfg.burst_size = 200;
  auto dg = std::move(GenerateDynamic(cfg)).value();
  std::set<VertexId> burst_sources;
  for (const DynamicEdge& e : dg.DeltaAt(2)) {
    if (e.kind == EvolutionKind::kBurst) burst_sources.insert(e.edge.src);
  }
  // One burst event = one hub.
  EXPECT_LE(burst_sources.size(), 1u);
}

TEST(DynamicGenTest, RejectsBadConfig) {
  DynamicConfig cfg;
  cfg.num_vertices = 1;
  EXPECT_FALSE(GenerateDynamic(cfg).ok());
}

// ---------------------------------------------------------------------------
// ZipfSampler: the serving load generator's skew source. Determinism and
// pmf well-formedness are property-tested across random shapes; the
// empirical-frequency check pins the alias table to the analytic pmf.

ALIGRAPH_PROP(ZipfProps, DeterministicWithWellFormedPmf, 8) {
  ZipfConfig cfg;
  cfg.num_ranks = 1 + ctx.rng.Uniform(2000);
  cfg.exponent = ctx.rng.NextDouble() * 1.5;
  cfg.seed = ctx.rng.Next();
  ZipfSampler a(cfg);
  ZipfSampler b(cfg);

  // pmf: normalized and monotone non-increasing in rank.
  double total = 0.0;
  for (size_t r = 0; r < a.num_ranks(); ++r) {
    total += a.Probability(r);
    if (r > 0) {
      EXPECT_LE(a.Probability(r), a.Probability(r - 1) + 1e-12) << "rank " << r;
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);

  // Same config => same internal stream; draws always in range.
  for (int i = 0; i < 256; ++i) {
    const size_t va = a.Next();
    EXPECT_EQ(va, b.Next()) << "draw " << i;
    EXPECT_LT(va, cfg.num_ranks);
  }
  // External-RNG draws are pure functions of the RNG state, independent of
  // the sampler's own stream position.
  Rng r1(cfg.seed + 1);
  Rng r2(cfg.seed + 1);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.Sample(r1), b.Sample(r2)) << "draw " << i;
  }
}

TEST(ZipfTest, EmpiricalFrequenciesMatchAnalyticPmf) {
  ZipfConfig cfg;
  cfg.num_ranks = 16;
  cfg.exponent = 1.0;
  cfg.seed = 5;
  ZipfSampler z(cfg);
  const size_t draws = 200000;
  std::vector<size_t> counts(cfg.num_ranks, 0);
  for (size_t i = 0; i < draws; ++i) ++counts[z.Next()];
  for (size_t r = 0; r < cfg.num_ranks; ++r) {
    const double observed =
        static_cast<double>(counts[r]) / static_cast<double>(draws);
    // Standard error at 200k draws is ~1e-3; 1e-2 has huge headroom while
    // still catching an alias table built from the wrong weights.
    EXPECT_NEAR(observed, z.Probability(r), 0.01) << "rank " << r;
  }
  // The defining shape: rank 0 dominates the tail.
  EXPECT_GT(counts[0], 4 * counts[cfg.num_ranks - 1]);
}

// The serving layer's RootsFor draws ranks through SampleBatch; this
// property is what keeps every seeded root stream (and the serve baseline
// keys downstream of it) unchanged by the batching: the batched draw is
// bit-identical to the scalar Sample loop on the same RNG stream.
ALIGRAPH_PROP(ZipfProps, SampleBatchBitIdenticalToScalarSampleLoop, 8) {
  ZipfConfig cfg;
  cfg.num_ranks = 1 + ctx.rng.Uniform(2000);
  cfg.exponent = ctx.rng.NextDouble() * 1.5;
  cfg.seed = ctx.rng.Next();
  ZipfSampler z(cfg);

  const uint64_t stream_seed = ctx.rng.Next();
  const size_t count = 1 + ctx.rng.Uniform(300);
  Rng scalar_rng(stream_seed);
  std::vector<size_t> scalar(count);
  for (size_t& s : scalar) s = z.Sample(scalar_rng);

  Rng batch_rng(stream_seed);
  std::vector<size_t> batched(count);
  z.SampleBatch(batch_rng, batched);
  EXPECT_EQ(batched, scalar);
  EXPECT_EQ(batch_rng.Next(), scalar_rng.Next());
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfConfig cfg;
  cfg.num_ranks = 64;
  cfg.exponent = 0.0;
  cfg.seed = 2;
  ZipfSampler z(cfg);
  for (size_t r = 0; r < cfg.num_ranks; ++r) {
    EXPECT_DOUBLE_EQ(z.Probability(r), 1.0 / 64.0);
  }
}

}  // namespace
}  // namespace gen
}  // namespace aligraph
