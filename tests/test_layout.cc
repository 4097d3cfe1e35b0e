// Tests for the layout subsystem: every reordering must be OBSERVATIONALLY
// INVISIBLE. The suite proves it differentially — permutation validity and
// per-vertex isomorphism of the reordered storage, bit-identity of k-hop
// draws across layouts x partitioners x cache configurations, and
// bit-identity of relabeled blocks and GNN forward passes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "algo/embedding_algorithm.h"
#include "algo/gnn.h"
#include "block/feature_source.h"
#include "block/sampled_block.h"
#include "cluster/cluster.h"
#include "common/random.h"
#include "graph/graph.h"
#include "layout/layout.h"
#include "nn/matrix.h"
#include "partition/partitioner.h"
#include "proptest.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace layout {
namespace {

using proptest::PropContext;

// Seeded shuffle of all vertex ids: a traffic ranking uncorrelated with
// the graph's structure, as item popularity is in production.
std::vector<VertexId> ShuffledIds(Rng& rng, VertexId n) {
  std::vector<VertexId> ids(n);
  std::iota(ids.begin(), ids.end(), VertexId{0});
  for (size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.Uniform(i)]);
  }
  return ids;
}

size_t HubDegree(const AttributedGraph& g, VertexId v) {
  return g.OutDegree(v) + g.InDegree(v);
}

// rank -> old vertex: descending hub degree, ties toward the smaller id.
std::vector<VertexId> HubOrder(const AttributedGraph& g) {
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::stable_sort(order.begin(), order.end(), [&g](VertexId a, VertexId b) {
    return HubDegree(g, a) > HubDegree(g, b);
  });
  return order;
}

// Every non-identity layout the differential suites sweep: hot-first over
// the hub order, and over two random traffic rankings drawn from the
// property context.
std::vector<VertexLayout> NontrivialLayouts(PropContext& ctx,
                                            const AttributedGraph& g) {
  std::vector<VertexLayout> layouts;
  layouts.push_back(ComputeHotFirstLayout(g, HubOrder(g)));
  for (int i = 0; i < 2; ++i) {
    layouts.push_back(
        ComputeHotFirstLayout(g, ShuffledIds(ctx.rng, g.num_vertices())));
  }
  return layouts;
}

std::vector<VertexId> RandomRoots(PropContext& ctx, const AttributedGraph& g,
                                  size_t count) {
  std::vector<VertexId> roots(count);
  for (VertexId& r : roots) {
    r = static_cast<VertexId>(ctx.rng.Uniform(g.num_vertices()));
  }
  return roots;
}

bool MatricesBitEqual(const nn::Matrix& a, const nn::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.rows(); ++i) {
    const auto ra = a.Row(i);
    const auto rb = b.Row(i);
    if (std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Permutation validity and hot-first shape.

ALIGRAPH_PROP(LayoutProps, HotFirstProducesValidPermutations, 10) {
  const AttributedGraph g = proptest::RandomGraph(ctx);
  const VertexId n = g.num_vertices();
  const std::vector<std::vector<VertexId>> rankings = {
      {}, HubOrder(g), ShuffledIds(ctx.rng, n), ShuffledIds(ctx.rng, n)};
  for (size_t i = 0; i < rankings.size(); ++i) {
    const VertexLayout layout = ComputeHotFirstLayout(g, rankings[i]);
    EXPECT_TRUE(IsValidPermutation(layout, n)) << "ranking " << i;
    // Recomputing is deterministic: same graph and ranking, same layout.
    const VertexLayout again = ComputeHotFirstLayout(g, rankings[i]);
    EXPECT_EQ(layout.new_of_old, again.new_of_old) << "ranking " << i;
  }
  // An empty ranking leaves every vertex where it is.
  EXPECT_TRUE(ComputeHotFirstLayout(g, {}).IsIdentity());
}

ALIGRAPH_PROP(LayoutProps, HotFirstOverHubOrderRanksHubsFirst, 10) {
  const AttributedGraph g = proptest::RandomGraph(ctx);
  const VertexLayout layout = ComputeHotFirstLayout(g, HubOrder(g));
  for (VertexId nv = 1; nv < g.num_vertices(); ++nv) {
    const VertexId prev = layout.ToOld(nv - 1);
    const VertexId cur = layout.ToOld(nv);
    EXPECT_GE(HubDegree(g, prev), HubDegree(g, cur)) << "rank " << nv;
    if (HubDegree(g, prev) == HubDegree(g, cur)) {
      EXPECT_LT(prev, cur) << "tie at rank " << nv;
    }
  }
}

ALIGRAPH_PROP(LayoutProps, HotFirstPacksTrafficRankingThenOldIdOrder, 10) {
  const AttributedGraph g = proptest::RandomGraph(ctx);
  const VertexId n = g.num_vertices();
  // A partial ranking with duplicates: first occurrence must win.
  std::vector<VertexId> ranking = ShuffledIds(ctx.rng, n);
  ranking.resize(1 + ctx.rng.Uniform(n));
  const size_t unique = ranking.size();
  for (size_t i = 0; i + 1 < unique && i < 3; ++i) {
    ranking.push_back(ranking[i]);  // repeats of already-ranked ids
  }

  const VertexLayout layout = ComputeHotFirstLayout(g, ranking);
  ASSERT_TRUE(IsValidPermutation(layout, n));
  // Ranked prefix in ranking order...
  for (size_t rank = 0; rank < unique; ++rank) {
    EXPECT_EQ(layout.ToOld(static_cast<VertexId>(rank)), ranking[rank])
        << "rank " << rank;
  }
  // ...then every unranked vertex in ascending old id.
  for (size_t rank = unique + 1; rank < n; ++rank) {
    EXPECT_LT(layout.ToOld(static_cast<VertexId>(rank - 1)),
              layout.ToOld(static_cast<VertexId>(rank)));
  }
}

TEST(LayoutTest, ApplyLayoutRejectsNonPermutations) {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 50;
  cfg.avg_degree = 4;
  cfg.seed = 3;
  const AttributedGraph g = std::move(gen::ChungLu(cfg)).value();

  VertexLayout bad = VertexLayout::Identity(g.num_vertices());
  bad.new_of_old[0] = bad.new_of_old[1];  // not a bijection
  EXPECT_FALSE(IsValidPermutation(bad, g.num_vertices()));
  EXPECT_FALSE(ApplyLayout(g, bad).ok());

  VertexLayout short_map = VertexLayout::Identity(g.num_vertices() - 1);
  EXPECT_FALSE(ApplyLayout(g, short_map).ok());

  VertexLayout stale_inverse = VertexLayout::Identity(g.num_vertices());
  std::swap(stale_inverse.new_of_old[0], stale_inverse.new_of_old[1]);
  // old_of_new was not updated to match: inconsistent inverse.
  EXPECT_FALSE(IsValidPermutation(stale_inverse, g.num_vertices()));
}

// ---------------------------------------------------------------------------
// Reordered storage is the same graph, vertex for vertex: degrees, types,
// weights, attrs and — critically for RNG-positional samplers — per-vertex
// NEIGHBOR ORDER are all preserved under the id map.

ALIGRAPH_PROP(LayoutProps, ReorderedGraphIsIsomorphicPerVertex, 8) {
  const AttributedGraph g = proptest::RandomGraph(ctx);
  for (const VertexLayout& layout : NontrivialLayouts(ctx, g)) {
    auto reordered = ApplyLayout(g, layout);
    ASSERT_TRUE(reordered.ok()) << reordered.status().ToString();
    const AttributedGraph& r = *reordered;

    ASSERT_EQ(r.num_vertices(), g.num_vertices());
    EXPECT_EQ(r.num_edges(), g.num_edges());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const VertexId nv = layout.ToNew(v);
      EXPECT_EQ(r.vertex_type(nv), g.vertex_type(v));
      ASSERT_EQ(r.OutDegree(nv), g.OutDegree(v)) << "vertex " << v;
      ASSERT_EQ(r.InDegree(nv), g.InDegree(v)) << "vertex " << v;
      const auto old_nbs = g.OutNeighbors(v);
      const auto new_nbs = r.OutNeighbors(nv);
      for (size_t i = 0; i < old_nbs.size(); ++i) {
        EXPECT_EQ(new_nbs[i].dst, layout.ToNew(old_nbs[i].dst));
        EXPECT_EQ(new_nbs[i].weight, old_nbs[i].weight);
        EXPECT_EQ(new_nbs[i].attr, old_nbs[i].attr);
      }
      // Typed adjacency preserves order too (type 0 is ChungLu's only one).
      const auto old_typed = g.OutNeighbors(v, EdgeType{0});
      const auto new_typed = r.OutNeighbors(nv, EdgeType{0});
      ASSERT_EQ(new_typed.size(), old_typed.size());
      for (size_t i = 0; i < old_typed.size(); ++i) {
        EXPECT_EQ(new_typed[i].dst, layout.ToNew(old_typed[i].dst));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential k-hop sampling: same seed, same roots (mapped), same draws
// (mapped back) — no matter the layout, the neighbor strategy, the
// partitioner the cluster was built with, or whether a cache is installed.

ALIGRAPH_PROP(LayoutDifferential, LocalDrawsInvariantAcrossStrategies, 8) {
  const AttributedGraph g = proptest::RandomGraph(ctx);
  const std::vector<VertexId> roots = RandomRoots(ctx, g, 8);
  const std::vector<uint32_t> fans{3, 2};
  const uint64_t seed = ctx.rng.Next();
  const std::vector<VertexLayout> layouts = NontrivialLayouts(ctx, g);

  for (const NeighborStrategy strategy :
       {NeighborStrategy::kUniform, NeighborStrategy::kWeighted,
        NeighborStrategy::kTopK}) {
    LocalNeighborSource base_source(g);
    NeighborhoodSampler base_sampler(strategy, seed);
    const NeighborhoodSample base = base_sampler.Sample(
        base_source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);

    for (size_t li = 0; li < layouts.size(); ++li) {
      const VertexLayout& layout = layouts[li];
      const AttributedGraph r = std::move(ApplyLayout(g, layout)).value();
      LocalNeighborSource source(r);
      NeighborhoodSampler sampler(strategy, seed);
      const NeighborhoodSample got = sampler.Sample(
          source, MapToNew(layout, roots),
          NeighborhoodSampler::kAllEdgeTypes, fans);

      ASSERT_EQ(got.hops.size(), base.hops.size());
      for (size_t h = 0; h < base.hops.size(); ++h) {
        EXPECT_EQ(MapToOld(layout, got.hops[h]), base.hops[h])
            << "layout " << li << " strategy "
            << static_cast<int>(strategy) << " hop " << h;
      }
    }
  }
}

ALIGRAPH_PROP(LayoutDifferential, DrawsInvariantAcrossPartitionersAndCaches,
              4) {
  const AttributedGraph g = proptest::RandomGraph(ctx);
  const std::vector<VertexId> roots = RandomRoots(ctx, g, 6);
  const std::vector<uint32_t> fans{3, 2};
  const uint64_t seed = ctx.rng.Next();
  const uint32_t workers = proptest::RandomWorkers(ctx);

  LocalNeighborSource base_source(g);
  NeighborhoodSampler base_sampler(NeighborStrategy::kUniform, seed);
  const NeighborhoodSample base = base_sampler.Sample(
      base_source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);

  const EdgeCutPartitioner edge_cut;
  const VertexCutPartitioner vertex_cut;
  const Grid2DPartitioner grid;
  const StreamingPartitioner streaming;
  const MetisPartitioner metis;
  const Partitioner* partitioners[] = {&edge_cut, &vertex_cut, &grid,
                                       &streaming, &metis};

  const std::vector<VertexLayout> layouts = NontrivialLayouts(ctx, g);
  for (size_t li = 0; li < layouts.size(); ++li) {
    const VertexLayout& layout = layouts[li];
    const AttributedGraph r = std::move(ApplyLayout(g, layout)).value();
    const std::vector<VertexId> mapped_roots = MapToNew(layout, roots);

    for (const Partitioner* part : partitioners) {
      auto cluster = Cluster::Build(r, *part, workers);
      ASSERT_TRUE(cluster.ok())
          << part->name() << ": " << cluster.status().ToString();
      for (const bool cached : {false, true}) {
        if (cached) cluster->InstallTopImportanceCache(2, 0.1);
        CommStats stats;
        DistributedNeighborSource source(*cluster, /*worker=*/0, &stats);
        NeighborhoodSampler sampler(NeighborStrategy::kUniform, seed);
        const NeighborhoodSample got = sampler.Sample(
            source, mapped_roots, NeighborhoodSampler::kAllEdgeTypes, fans);

        ASSERT_EQ(got.hops.size(), base.hops.size());
        for (size_t h = 0; h < base.hops.size(); ++h) {
          EXPECT_EQ(MapToOld(layout, got.hops[h]), base.hops[h])
              << "layout " << li << " partitioner " << part->name()
              << (cached ? " cached" : " uncached") << " hop " << h;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Blocks and forward passes: relabeling assigns local ids in
// first-appearance order, so a reordered sample produces the SAME block
// structure (root slots, hop CSRs) with globals mapped through the layout —
// and with PermuteRows'd features, bit-identical embeddings.

ALIGRAPH_PROP(LayoutDifferential, BlocksAndForwardBitIdentical, 6) {
  const AttributedGraph g = proptest::RandomGraph(ctx);
  const std::vector<VertexId> roots = RandomRoots(ctx, g, 6);
  const std::vector<uint32_t> fans{4, 3};
  const uint64_t sampler_seed = ctx.rng.Next();
  const uint64_t weight_seed = ctx.rng.Next();
  constexpr size_t kDim = 8;
  const nn::Matrix features = algo::BuildFeatureMatrix(g, kDim);

  LocalNeighborSource base_source(g);
  block::MatrixFeatureSource base_features(features);
  NeighborhoodSampler base_sampler(NeighborStrategy::kUniform, sampler_seed);
  const block::SampledBlock base = base_sampler.SampleBlock(
      base_source, roots, NeighborhoodSampler::kAllEdgeTypes, fans);
  const nn::Matrix base_x =
      block::GatherBlockFeatures(base, base_features, /*row_cache=*/nullptr);

  Rng base_rng(weight_seed);
  algo::SageLayer base_l1(kDim, kDim, /*maxpool=*/false, base_rng);
  algo::SageLayer base_l2(kDim, kDim, /*maxpool=*/false, base_rng,
                          /*relu=*/false);
  algo::SageLayer::Cache c0, c1, c2;
  const nn::Matrix base_h1r = base_l1.ForwardBlock(base_x, base.hops()[0], &c0);
  const nn::Matrix base_h1n = base_l1.ForwardBlock(base_x, base.hops()[1], &c1);
  const nn::Matrix base_out = base_l2.Forward(base_h1r, base_h1n, fans[0], &c2);

  const std::vector<VertexLayout> layouts = NontrivialLayouts(ctx, g);
  for (size_t li = 0; li < layouts.size(); ++li) {
    const VertexLayout& layout = layouts[li];
    const AttributedGraph r = std::move(ApplyLayout(g, layout)).value();
    const nn::Matrix permuted = PermuteRows(features, layout);
    LocalNeighborSource source(r);
    block::MatrixFeatureSource feature_source(permuted);
    NeighborhoodSampler sampler(NeighborStrategy::kUniform, sampler_seed);
    const block::SampledBlock blk = sampler.SampleBlock(
        source, MapToNew(layout, roots), NeighborhoodSampler::kAllEdgeTypes,
        fans);
    const nn::Matrix x =
        block::GatherBlockFeatures(blk, feature_source, /*row_cache=*/nullptr);

    // Identical structure: local ids, per-slot roots, per-hop CSRs.
    ASSERT_EQ(blk.num_vertices(), base.num_vertices());
    EXPECT_TRUE(std::equal(blk.root_locals().begin(), blk.root_locals().end(),
                           base.root_locals().begin()));
    ASSERT_EQ(blk.hops().size(), base.hops().size());
    for (size_t h = 0; h < base.hops().size(); ++h) {
      EXPECT_EQ(blk.hops()[h].dst, base.hops()[h].dst) << "hop " << h;
      EXPECT_EQ(blk.hops()[h].offsets, base.hops()[h].offsets) << "hop " << h;
      EXPECT_EQ(blk.hops()[h].src, base.hops()[h].src) << "hop " << h;
    }
    // Globals are the same vertices, spoken in the layout's id space.
    for (size_t local = 0; local < base.num_vertices(); ++local) {
      EXPECT_EQ(layout.ToOld(blk.global_of(static_cast<uint32_t>(local))),
                base.global_of(static_cast<uint32_t>(local)));
    }
    // Features per local id are bit-identical, hence so is the forward pass.
    EXPECT_TRUE(MatricesBitEqual(x, base_x));

    Rng rng(weight_seed);
    algo::SageLayer l1(kDim, kDim, /*maxpool=*/false, rng);
    algo::SageLayer l2(kDim, kDim, /*maxpool=*/false, rng, /*relu=*/false);
    algo::SageLayer::Cache d0, d1, d2;
    const nn::Matrix h1r = l1.ForwardBlock(x, blk.hops()[0], &d0);
    const nn::Matrix h1n = l1.ForwardBlock(x, blk.hops()[1], &d1);
    const nn::Matrix out = l2.Forward(h1r, h1n, fans[0], &d2);
    EXPECT_TRUE(MatricesBitEqual(out, base_out)) << "layout " << li;
  }
}

}  // namespace
}  // namespace layout
}  // namespace aligraph
