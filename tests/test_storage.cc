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
  EXPECT_TRUE(cache.Lookup(5));
  EXPECT_FALSE(cache.Lookup(6));
  // Static caches ignore remote-fetch admissions.
  cache.OnRemoteFetch(6);
  EXPECT_FALSE(cache.Lookup(6));
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
  EXPECT_FALSE(cache.Lookup(2));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.entry_count(), g.OutDegree(1) + g.OutDegree(3));
  cache.Invalidate(2);  // already gone: no double subtraction
  EXPECT_EQ(cache.entry_count(), g.OutDegree(1) + g.OutDegree(3));
}

TEST(LruNeighborCacheTest, AdmitsAndEvicts) {
  const AttributedGraph g = MakeGraph();
  LruNeighborCache cache(g, 2);
  cache.OnRemoteFetch(1);
  cache.OnRemoteFetch(2);
  EXPECT_TRUE(cache.Lookup(1));
  cache.OnRemoteFetch(3);  // evicts 2 (1 was refreshed)
  EXPECT_FALSE(cache.Lookup(2));
  EXPECT_TRUE(cache.Lookup(3));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruNeighborCacheTest, EntryAccountingTracksEvictions) {
  const AttributedGraph g = MakeGraph();
  LruNeighborCache cache(g, 1);
  cache.OnRemoteFetch(1);
  EXPECT_EQ(cache.entry_count(), g.OutDegree(1));
  cache.OnRemoteFetch(2);  // evicts 1
  EXPECT_EQ(cache.entry_count(), g.OutDegree(2));
  cache.Invalidate(2);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.entry_count(), 0u);
}

TEST(LruNeighborCacheTest, DuplicateFetchNotDoubleCounted) {
  const AttributedGraph g = MakeGraph();
  LruNeighborCache cache(g, 4);
  cache.OnRemoteFetch(1);
  cache.OnRemoteFetch(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.entry_count(), g.OutDegree(1));
}

}  // namespace
}  // namespace aligraph
