// Tests for the storage layer: importance-based cache selection (Algorithm
// 2) and the neighbor-cache policies of Figure 9.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/powerlaw.h"
#include "graph/graph.h"
#include "graph/khop.h"
#include "storage/importance.h"
#include "storage/neighbor_cache.h"

namespace aligraph {
namespace {

AttributedGraph MakeGraph() {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 3000;
  cfg.avg_degree = 8;
  cfg.seed = 13;
  return std::move(gen::ChungLu(cfg)).value();
}

TEST(ImportanceSelectionTest, HigherThresholdSelectsFewer) {
  const AttributedGraph g = MakeGraph();
  double prev = 1.1;
  for (double tau : {0.05, 0.15, 0.3, 0.45}) {
    const double rate = CacheRateAtThreshold(g, 2, tau);
    EXPECT_LE(rate, prev) << "tau=" << tau;
    prev = rate;
  }
}

TEST(ImportanceSelectionTest, ZeroThresholdSelectsVerticesWithOutEdges) {
  const AttributedGraph g = MakeGraph();
  const double rate = CacheRateAtThreshold(g, 1, 0.0);
  // Every vertex with at least one out-edge has importance >= 0; those with
  // no out-paths have importance 0, which still passes tau = 0.
  EXPECT_GT(rate, 0.5);
}

TEST(ImportanceSelectionTest, SelectionMatchesThresholdSemantics) {
  const AttributedGraph g = MakeGraph();
  const double tau = 0.2;
  const ImportanceSelection sel = SelectImportantVertices(g, 1, {tau});
  const auto imp = ImportanceScores(g, 1);
  for (VertexId v : sel.vertices) EXPECT_GE(imp[v], tau);
  size_t expected = 0;
  for (double i : imp) {
    if (i >= tau) ++expected;
  }
  EXPECT_EQ(sel.vertices.size(), expected);
}

TEST(ImportanceSelectionTest, MultiDepthUnion) {
  const AttributedGraph g = MakeGraph();
  const auto only1 = SelectImportantVertices(g, 1, {0.3, 1e18});
  const auto both = SelectImportantVertices(g, 2, {0.3, 0.3});
  EXPECT_GE(both.vertices.size(), only1.vertices.size());
}

TEST(ImportanceSelectionTest, TopFractionHasHighestScores) {
  const AttributedGraph g = MakeGraph();
  const auto top = SelectTopImportance(g, 1, 0.1);
  const auto imp = ImportanceScores(g, 1);
  ASSERT_FALSE(top.empty());
  double min_selected = 1e30;
  for (VertexId v : top) min_selected = std::min(min_selected, imp[v]);
  // Count vertices strictly above the weakest selected one; must not exceed
  // the selection size (otherwise something better was skipped).
  size_t better = 0;
  for (double i : imp) {
    if (i > min_selected) ++better;
  }
  EXPECT_LE(better, top.size());
}

TEST(RandomSelectionTest, FractionRoughlyHonored) {
  const AttributedGraph g = MakeGraph();
  const auto sel = SelectRandomVertices(g, 0.25, 7);
  const double got =
      static_cast<double>(sel.size()) / g.num_vertices();
  EXPECT_NEAR(got, 0.25, 0.05);
}

TEST(StaticNeighborCacheTest, ServesPinnedVertices) {
  const AttributedGraph g = MakeGraph();
  std::vector<VertexId> pinned{0, 5, 10};
  StaticNeighborCache cache("importance", g, pinned);
  EXPECT_EQ(cache.size(), 3u);
  auto hit = cache.Lookup(5);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), g.OutDegree(5));
  EXPECT_FALSE(cache.Lookup(6).has_value());
  // Static caches ignore remote-fetch admissions.
  cache.OnRemoteFetch(6, g.OutNeighbors(6));
  EXPECT_FALSE(cache.Lookup(6).has_value());
}

TEST(StaticNeighborCacheTest, EntryCountMatchesDegreeSum) {
  const AttributedGraph g = MakeGraph();
  std::vector<VertexId> pinned{1, 2, 3};
  StaticNeighborCache cache("x", g, pinned);
  size_t expected = 0;
  for (VertexId v : pinned) expected += g.OutDegree(v);
  EXPECT_EQ(cache.entry_count(), expected);
}

TEST(StaticNeighborCacheTest, DuplicatePinCountedOnce) {
  const AttributedGraph g = MakeGraph();
  StaticNeighborCache cache("x", g, {1, 2, 2, 3});
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.entry_count(),
            g.OutDegree(1) + g.OutDegree(2) + g.OutDegree(3));
  cache.Invalidate(2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.entry_count(), g.OutDegree(1) + g.OutDegree(3));
  cache.Invalidate(2);  // already gone: no double subtraction
  EXPECT_EQ(cache.entry_count(), g.OutDegree(1) + g.OutDegree(3));
}

TEST(StaticNeighborCacheTest, HitViewsGraphStorage) {
  const AttributedGraph g = MakeGraph();
  std::vector<VertexId> pinned;
  for (VertexId v = 0; v < g.num_vertices(); v += 7) pinned.push_back(v);
  StaticNeighborCache cache("x", g, pinned);
  for (VertexId v : pinned) {
    const auto hit = cache.Lookup(v);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->data(), g.OutNeighbors(v).data());
    EXPECT_EQ(hit->size(), g.OutDegree(v));
  }
  // Invalidation drops the pin, not the bytes a reader already holds.
  const VertexId v = pinned[1];
  const auto hit = cache.Lookup(v);
  ASSERT_TRUE(hit.has_value());
  cache.Invalidate(v);
  EXPECT_FALSE(cache.Lookup(v).has_value());
  ASSERT_EQ(hit->size(), g.OutDegree(v));
  for (size_t i = 0; i < hit->size(); ++i) {
    EXPECT_EQ((*hit)[i].dst, g.OutNeighbors(v)[i].dst);
  }
}

TEST(LruNeighborCacheTest, AdmitsAndEvicts) {
  const AttributedGraph g = MakeGraph();
  LruNeighborCache cache(2);
  cache.OnRemoteFetch(1, g.OutNeighbors(1));
  cache.OnRemoteFetch(2, g.OutNeighbors(2));
  EXPECT_TRUE(cache.Lookup(1).has_value());
  cache.OnRemoteFetch(3, g.OutNeighbors(3));  // evicts 2 (1 was refreshed)
  EXPECT_FALSE(cache.Lookup(2).has_value());
  EXPECT_TRUE(cache.Lookup(3).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruNeighborCacheTest, EntryAccountingTracksEvictions) {
  const AttributedGraph g = MakeGraph();
  LruNeighborCache cache(1);
  cache.OnRemoteFetch(1, g.OutNeighbors(1));
  const size_t first = cache.entry_count();
  EXPECT_EQ(first, g.OutDegree(1));
  cache.OnRemoteFetch(2, g.OutNeighbors(2));
  EXPECT_EQ(cache.entry_count(), g.OutDegree(2));
}

TEST(LruNeighborCacheTest, LookupDataSurvivesEviction) {
  const AttributedGraph g = MakeGraph();
  LruNeighborCache cache(1);
  cache.OnRemoteFetch(1, g.OutNeighbors(1));
  auto hit = cache.Lookup(1);
  ASSERT_TRUE(hit.has_value());
  cache.OnRemoteFetch(2, g.OutNeighbors(2));  // evicts 1
  // The span from the last lookup is still pinned and readable.
  EXPECT_EQ(hit->size(), g.OutDegree(1));
}

TEST(LruNeighborCacheTest, DuplicateFetchNotDoubleCounted) {
  const AttributedGraph g = MakeGraph();
  LruNeighborCache cache(4);
  cache.OnRemoteFetch(1, g.OutNeighbors(1));
  cache.OnRemoteFetch(1, g.OutNeighbors(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.entry_count(), g.OutDegree(1));
}

}  // namespace
}  // namespace aligraph
