// Tests for the graph data model: schema, attribute store, builder / CSR,
// k-hop counts and dynamic graphs.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "graph/attributes.h"
#include "graph/dynamic_graph.h"
#include "graph/graph.h"
#include "graph/khop.h"
#include "graph/schema.h"
#include "proptest.h"

namespace aligraph {
namespace {

TEST(SchemaTest, DefaultSchemaIsHomogeneous) {
  GraphSchema s;
  EXPECT_EQ(s.num_vertex_types(), 1u);
  EXPECT_EQ(s.num_edge_types(), 1u);
  EXPECT_FALSE(s.IsHeterogeneous());
}

TEST(SchemaTest, RegistrationIsIdempotent) {
  GraphSchema s;
  const VertexType user = s.AddVertexType("user");
  EXPECT_EQ(s.AddVertexType("user"), user);
  EXPECT_EQ(s.num_vertex_types(), 2u);
  EXPECT_TRUE(s.IsHeterogeneous());
}

TEST(SchemaTest, LookupByName) {
  GraphSchema s;
  const EdgeType click = s.AddEdgeType("click");
  auto found = s.EdgeTypeId("click");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), click);
  EXPECT_EQ(s.EdgeTypeName(click), "click");
  EXPECT_FALSE(s.EdgeTypeId("nope").ok());
  EXPECT_FALSE(s.VertexTypeId("nope").ok());
}

TEST(AttributeStoreTest, InterningDeduplicates) {
  AttributeStore store;
  const AttrId a = store.Intern({1.0f, 2.0f});
  const AttrId b = store.Intern({1.0f, 2.0f});
  const AttrId c = store.Intern({1.0f, 2.5f});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(store.num_records(), 2u);
  EXPECT_EQ(store.num_references(), 3u);
}

TEST(AttributeStoreTest, GetReturnsStoredValues) {
  AttributeStore store;
  const AttrId id = store.Intern({3.0f, 4.0f, 5.0f});
  auto span = store.Get(id);
  ASSERT_EQ(span.size(), 3u);
  EXPECT_FLOAT_EQ(span[0], 3.0f);
  EXPECT_FLOAT_EQ(span[2], 5.0f);
}

TEST(AttributeStoreTest, SeparateStorageSavesSpace) {
  // The paper's argument: many duplicated attribute payloads. 1000 refs to
  // 4 distinct records must use far less than inlined storage.
  AttributeStore store;
  for (int i = 0; i < 1000; ++i) {
    store.Intern({static_cast<float>(i % 4), 1.0f, 2.0f, 3.0f});
  }
  EXPECT_EQ(store.num_records(), 4u);
  EXPECT_LT(store.DedupBytes(), store.InlinedBytes() / 10);
}

TEST(AttributeStoreTest, EmptyRecordSupported) {
  AttributeStore store;
  const AttrId id = store.Intern({});
  EXPECT_EQ(store.Get(id).size(), 0u);
}

class SmallGraphTest : public ::testing::Test {
 protected:
  // user0 -click-> item2, user0 -buy-> item3, user1 -click-> item2,
  // item2 -co-> item3.
  void SetUp() override {
    GraphSchema schema;
    user_ = schema.AddVertexType("user");
    item_ = schema.AddVertexType("item");
    click_ = schema.AddEdgeType("click");
    buy_ = schema.AddEdgeType("buy");
    co_ = schema.AddEdgeType("co");
    GraphBuilder gb(schema);
    gb.AddVertex(user_, {1.0f});
    gb.AddVertex(user_, {1.0f});
    gb.AddVertex(item_, {2.0f, 3.0f});
    gb.AddVertex(item_, {2.0f, 3.0f});
    ASSERT_TRUE(gb.AddEdge(0, 2, click_, 1.0f).ok());
    ASSERT_TRUE(gb.AddEdge(0, 3, buy_, 2.0f).ok());
    ASSERT_TRUE(gb.AddEdge(1, 2, click_, 1.0f).ok());
    ASSERT_TRUE(gb.AddEdge(2, 3, co_, 0.5f).ok());
    auto built = gb.Build();
    ASSERT_TRUE(built.ok());
    graph_ = std::move(built).value();
  }

  VertexType user_, item_;
  EdgeType click_, buy_, co_;
  AttributedGraph graph_;
};

TEST_F(SmallGraphTest, Counts) {
  EXPECT_EQ(graph_.num_vertices(), 4u);
  EXPECT_EQ(graph_.num_edges(), 4u);
  EXPECT_EQ(graph_.num_edge_types(), 4u);  // default "edge" + 3 registered
}

TEST_F(SmallGraphTest, MergedAdjacency) {
  EXPECT_EQ(graph_.OutDegree(0), 2u);
  EXPECT_EQ(graph_.OutDegree(1), 1u);
  EXPECT_EQ(graph_.InDegree(2), 2u);
  EXPECT_EQ(graph_.InDegree(3), 2u);
  EXPECT_EQ(graph_.OutDegree(3), 0u);
}

TEST_F(SmallGraphTest, TypedAdjacency) {
  EXPECT_EQ(graph_.OutDegree(0, click_), 1u);
  EXPECT_EQ(graph_.OutDegree(0, buy_), 1u);
  EXPECT_EQ(graph_.OutDegree(0, co_), 0u);
  auto clicks = graph_.OutNeighbors(0, click_);
  ASSERT_EQ(clicks.size(), 1u);
  EXPECT_EQ(clicks[0].dst, 2u);
  auto buys = graph_.OutNeighbors(0, buy_);
  ASSERT_EQ(buys.size(), 1u);
  EXPECT_EQ(buys[0].dst, 3u);
  EXPECT_FLOAT_EQ(buys[0].weight, 2.0f);
}

TEST_F(SmallGraphTest, TypedInAdjacency) {
  EXPECT_EQ(graph_.InDegree(2, click_), 2u);
  EXPECT_EQ(graph_.InDegree(3, buy_), 1u);
  EXPECT_EQ(graph_.InDegree(3, co_), 1u);
}

TEST_F(SmallGraphTest, VertexTypesAndFeatures) {
  EXPECT_EQ(graph_.vertex_type(0), user_);
  EXPECT_EQ(graph_.vertex_type(2), item_);
  EXPECT_EQ(graph_.VertexFeatures(0).size(), 1u);
  EXPECT_EQ(graph_.VertexFeatures(2).size(), 2u);
  // Duplicate attributes were interned once.
  EXPECT_EQ(graph_.vertex_attributes().num_records(), 2u);
}

TEST_F(SmallGraphTest, VerticesOfType) {
  auto users = graph_.VerticesOfType(user_);
  ASSERT_EQ(users.size(), 2u);
  EXPECT_EQ(users[0], 0u);
  EXPECT_EQ(users[1], 1u);
  EXPECT_EQ(graph_.VerticesOfType(item_).size(), 2u);
}

TEST_F(SmallGraphTest, MemoryAccountingPositive) {
  EXPECT_GT(graph_.MemoryBytes(), 0u);
  EXPECT_FALSE(graph_.ToString().empty());
}

TEST(GraphBuilderTest, RejectsInvalidEdges) {
  GraphBuilder gb;
  gb.AddVertex();
  EXPECT_FALSE(gb.AddEdge(0, 5).ok());          // endpoint out of range
  EXPECT_FALSE(gb.AddEdge(0, 0, 9).ok());       // unregistered type
  EXPECT_FALSE(gb.AddEdge(0, 0, 0, -1.0f).ok());  // negative weight
}

TEST(GraphBuilderTest, UndirectedMirrorsEdges) {
  GraphBuilder gb(GraphSchema(), /*undirected=*/true);
  gb.AddVertex();
  gb.AddVertex();
  ASSERT_TRUE(gb.AddEdge(0, 1).ok());
  auto g = gb.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->OutDegree(0), 1u);
  EXPECT_EQ(g->OutDegree(1), 1u);
  EXPECT_EQ(g->InDegree(0), 1u);
  EXPECT_EQ(g->InDegree(1), 1u);
}

TEST(GraphBuilderTest, SelfLoopNotMirroredTwice) {
  GraphBuilder gb(GraphSchema(), /*undirected=*/true);
  gb.AddVertex();
  ASSERT_TRUE(gb.AddEdge(0, 0).ok());
  auto g = gb.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->OutDegree(0), 1u);
}

// The adjacency GraphBuilder::Build must produce, written out naively:
// walk the edges in insertion order, append (row, neighbor) for the edge
// and, in an undirected graph, for its mirror unless it is a self-loop.
struct ReferenceAdjacency {
  std::vector<std::vector<Neighbor>> out, in;
};

ReferenceAdjacency Reference(VertexId n, const std::vector<RawEdge>& edges,
                             bool undirected, EdgeType type) {
  ReferenceAdjacency ref;
  ref.out.resize(n);
  ref.in.resize(n);
  for (const RawEdge& e : edges) {
    if (type != kAllEdgeTypes && e.type != type) continue;
    ref.out[e.src].push_back(Neighbor{e.dst, e.weight, e.attr});
    ref.in[e.dst].push_back(Neighbor{e.src, e.weight, e.attr});
    if (undirected && e.src != e.dst) {
      ref.out[e.dst].push_back(Neighbor{e.src, e.weight, e.attr});
      ref.in[e.src].push_back(Neighbor{e.dst, e.weight, e.attr});
    }
  }
  return ref;
}

void ExpectSameAdjacency(std::span<const Neighbor> got,
                         const std::vector<Neighbor>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].dst, want[i].dst) << what << " #" << i;
    EXPECT_EQ(got[i].weight, want[i].weight) << what << " #" << i;
    EXPECT_EQ(got[i].attr, want[i].attr) << what << " #" << i;
  }
}

ALIGRAPH_PROP(CsrBuildProps, MatchesNaiveReference, 16) {
  const bool undirected = ctx.rng.Bernoulli(0.5);
  GraphSchema schema;
  const size_t num_types = 1 + ctx.rng.Uniform(3);
  for (size_t t = 1; t < num_types; ++t) {
    schema.AddEdgeType("t" + std::to_string(t));
  }
  GraphBuilder gb(schema, undirected);
  const VertexId n = static_cast<VertexId>(1 + ctx.rng.Uniform(40));
  for (VertexId v = 0; v < n; ++v) gb.AddVertex();

  // Weights are distinct so a misplaced entry shows. Self-loops and
  // parallel edges are forced in. A twin AttributeStore fed the same
  // payloads in the same order yields the attr ids the builder assigns.
  std::vector<RawEdge> edges;
  AttributeStore attr_ids;
  const size_t m = ctx.rng.Uniform(200);
  for (size_t i = 0; i < m; ++i) {
    RawEdge e;
    e.src = static_cast<VertexId>(ctx.rng.Uniform(n));
    e.dst = ctx.rng.Bernoulli(0.1) ? e.src
                                   : static_cast<VertexId>(ctx.rng.Uniform(n));
    if (!edges.empty() && ctx.rng.Bernoulli(0.1)) {
      e.src = edges.back().src;
      e.dst = edges.back().dst;
    }
    e.type = static_cast<EdgeType>(ctx.rng.Uniform(num_types));
    e.weight = static_cast<float>(i) + 0.5f;
    std::vector<float> attrs;
    if (ctx.rng.Bernoulli(0.3)) attrs = {static_cast<float>(i % 5)};
    e.attr = attrs.empty() ? kNoAttr : attr_ids.Intern(attrs);
    ASSERT_TRUE(gb.AddEdge(e.src, e.dst, e.type, e.weight, attrs).ok());
    edges.push_back(e);
  }
  const AttributedGraph g = std::move(gb.Build()).value();
  ASSERT_EQ(g.num_edges(), m);
  ASSERT_EQ(g.num_edge_types(), num_types);

  const ReferenceAdjacency all = Reference(n, edges, undirected,
                                           kAllEdgeTypes);
  for (VertexId v = 0; v < n; ++v) {
    const std::string at = " v=" + std::to_string(v);
    ExpectSameAdjacency(g.OutNeighbors(v), all.out[v], "out" + at);
    ExpectSameAdjacency(g.InNeighbors(v), all.in[v], "in" + at);
    EXPECT_EQ(g.OutDegree(v), all.out[v].size());
    EXPECT_EQ(g.InDegree(v), all.in[v].size());
  }
  for (size_t t = 0; t < num_types; ++t) {
    const auto type = static_cast<EdgeType>(t);
    const ReferenceAdjacency typed = Reference(n, edges, undirected, type);
    for (VertexId v = 0; v < n; ++v) {
      const std::string at =
          " t=" + std::to_string(t) + " v=" + std::to_string(v);
      ExpectSameAdjacency(g.OutNeighbors(v, type), typed.out[v], "out" + at);
      ExpectSameAdjacency(g.InNeighbors(v, type), typed.in[v], "in" + at);
      EXPECT_EQ(g.OutDegree(v, type), typed.out[v].size());
      EXPECT_EQ(g.InDegree(v, type), typed.in[v].size());
    }
  }
}

TEST(GraphBuilderTest, SingleTypeTypedAccessorsShareMergedCsr) {
  for (const bool undirected : {false, true}) {
    GraphBuilder gb(GraphSchema(), undirected);
    for (int v = 0; v < 5; ++v) gb.AddVertex();
    ASSERT_TRUE(gb.AddEdge(0, 1).ok());
    ASSERT_TRUE(gb.AddEdge(0, 1).ok());
    ASSERT_TRUE(gb.AddEdge(2, 2).ok());
    ASSERT_TRUE(gb.AddEdge(3, 0, 0, 2.0f).ok());
    const AttributedGraph g = std::move(gb.Build()).value();
    ASSERT_EQ(g.num_edge_types(), 1u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(g.OutNeighbors(v, 0).data(), g.OutNeighbors(v).data());
      EXPECT_EQ(g.OutNeighbors(v, 0).size(), g.OutNeighbors(v).size());
      EXPECT_EQ(g.InNeighbors(v, 0).data(), g.InNeighbors(v).data());
      EXPECT_EQ(g.InNeighbors(v, 0).size(), g.InNeighbors(v).size());
    }
  }
}

TEST(GraphBuilderTest, EmptyGraphBuilds) {
  GraphBuilder gb;
  auto g = gb.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
}

TEST(KHopTest, OneHopEqualsDegree) {
  // Path 0 -> 1 -> 2.
  GraphBuilder gb;
  for (int i = 0; i < 3; ++i) gb.AddVertex();
  ASSERT_TRUE(gb.AddEdge(0, 1).ok());
  ASSERT_TRUE(gb.AddEdge(1, 2).ok());
  auto g = std::move(gb.Build()).value();
  const auto out1 = KHopOutCounts(g, 1);
  EXPECT_DOUBLE_EQ(out1[0], 1.0);
  EXPECT_DOUBLE_EQ(out1[1], 1.0);
  EXPECT_DOUBLE_EQ(out1[2], 0.0);
  const auto in1 = KHopInCounts(g, 1);
  EXPECT_DOUBLE_EQ(in1[0], 0.0);
  EXPECT_DOUBLE_EQ(in1[2], 1.0);
}

TEST(KHopTest, TwoHopPathCounts) {
  // Diamond: 0->1, 0->2, 1->3, 2->3 — two 2-hop paths from 0 to 3.
  GraphBuilder gb;
  for (int i = 0; i < 4; ++i) gb.AddVertex();
  ASSERT_TRUE(gb.AddEdge(0, 1).ok());
  ASSERT_TRUE(gb.AddEdge(0, 2).ok());
  ASSERT_TRUE(gb.AddEdge(1, 3).ok());
  ASSERT_TRUE(gb.AddEdge(2, 3).ok());
  auto g = std::move(gb.Build()).value();
  const auto out2 = KHopOutCounts(g, 2);
  EXPECT_DOUBLE_EQ(out2[0], 2.0);  // both paths reach 3
  EXPECT_DOUBLE_EQ(out2[1], 0.0);  // 3 has no out-edges
  const auto in2 = KHopInCounts(g, 2);
  EXPECT_DOUBLE_EQ(in2[3], 2.0);
}

TEST(KHopTest, ImportanceRatio) {
  // Hub with many in-edges and one out-edge has high importance.
  GraphBuilder gb;
  for (int i = 0; i < 5; ++i) gb.AddVertex();
  for (VertexId v = 1; v <= 3; ++v) ASSERT_TRUE(gb.AddEdge(v, 0).ok());
  ASSERT_TRUE(gb.AddEdge(0, 4).ok());
  auto g = std::move(gb.Build()).value();
  const auto imp = ImportanceScores(g, 1);
  EXPECT_DOUBLE_EQ(imp[0], 3.0);  // D_i=3, D_o=1
  EXPECT_DOUBLE_EQ(imp[4], 0.0);  // no out-edges -> 0 by convention
}

TEST(DynamicGraphTest, SnapshotsAccumulateEdges) {
  DynamicGraphBuilder dgb;
  for (int i = 0; i < 3; ++i) dgb.AddVertex();
  ASSERT_TRUE(dgb.AddEdge(0, 1, 1).ok());
  ASSERT_TRUE(dgb.AddEdge(1, 2, 2).ok());
  ASSERT_TRUE(dgb.AddEdge(0, 2, 3, 0, 1.0f, EvolutionKind::kBurst).ok());
  auto dg = std::move(dgb.Build()).value();
  ASSERT_EQ(dg.num_timestamps(), 3u);
  EXPECT_EQ(dg.Snapshot(1).num_edges(), 1u);
  EXPECT_EQ(dg.Snapshot(2).num_edges(), 2u);
  EXPECT_EQ(dg.Snapshot(3).num_edges(), 3u);
}

TEST(DynamicGraphTest, DeltasCarryKind) {
  DynamicGraphBuilder dgb;
  dgb.AddVertex();
  dgb.AddVertex();
  ASSERT_TRUE(dgb.AddEdge(0, 1, 2, 0, 1.0f, EvolutionKind::kBurst).ok());
  auto dg = std::move(dgb.Build()).value();
  EXPECT_TRUE(dg.DeltaAt(1).empty());
  ASSERT_EQ(dg.DeltaAt(2).size(), 1u);
  EXPECT_EQ(dg.DeltaAt(2)[0].kind, EvolutionKind::kBurst);
}

TEST(DynamicGraphTest, RejectsBadInput) {
  DynamicGraphBuilder dgb;
  dgb.AddVertex();
  EXPECT_FALSE(dgb.AddEdge(0, 7, 1).ok());
  EXPECT_FALSE(dgb.AddEdge(0, 0, 0).ok());  // timestamps start at 1
}

}  // namespace
}  // namespace aligraph
