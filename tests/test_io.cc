// Round-trip tests for the binary graph format, and its robustness to
// corrupt input: truncated, bit-flipped or NaN-carrying files must come back
// as a Status (or a graph), never as a crash or an unbounded allocation.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gen/taobao.h"
#include "graph/io.h"

namespace aligraph {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void ExpectGraphsEqual(const AttributedGraph& a, const AttributedGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.num_edge_types(), b.num_edge_types());
  ASSERT_EQ(a.undirected(), b.undirected());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.vertex_type(v), b.vertex_type(v));
    const auto fa = a.VertexFeatures(v);
    const auto fb = b.VertexFeatures(v);
    ASSERT_EQ(fa.size(), fb.size()) << "vertex " << v;
    for (size_t i = 0; i < fa.size(); ++i) EXPECT_FLOAT_EQ(fa[i], fb[i]);
    for (size_t t = 0; t < a.num_edge_types(); ++t) {
      const auto na = a.OutNeighbors(v, static_cast<EdgeType>(t));
      const auto nb = b.OutNeighbors(v, static_cast<EdgeType>(t));
      ASSERT_EQ(na.size(), nb.size()) << "vertex " << v << " type " << t;
      for (size_t i = 0; i < na.size(); ++i) {
        EXPECT_EQ(na[i].dst, nb[i].dst);
        EXPECT_FLOAT_EQ(na[i].weight, nb[i].weight);
      }
    }
  }
}

// Three vertices, two edges, vertex and edge attributes, two named types;
// the edge 0 -> 1 carries weight 2.5 (the NaN test patches it).
AttributedGraph SmallDirectedGraph() {
  GraphSchema schema;
  const VertexType user = schema.AddVertexType("user");
  const EdgeType click = schema.AddEdgeType("click");
  GraphBuilder gb(schema);
  gb.AddVertex(user, {1.0f, 2.0f});
  gb.AddVertex(user, {});
  gb.AddVertex(0, {3.5f});
  EXPECT_TRUE(gb.AddEdge(0, 1, click, 2.5f, {0.25f}).ok());
  EXPECT_TRUE(gb.AddEdge(1, 2, 0, 1.0f).ok());
  return std::move(gb.Build()).value();
}

std::vector<char> ReadBytes(const std::string& path) {
  std::vector<char> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path, const std::vector<char>& bytes,
                size_t count) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(bytes.data(), 1, count, f), count);
  std::fclose(f);
}

TEST(GraphIoTest, RoundTripDirectedWithAttributes) {
  auto g = SmallDirectedGraph();
  const EdgeType click = *g.schema().EdgeTypeId("click");

  const std::string path = TempPath("roundtrip_directed.algr");
  ASSERT_TRUE(SaveGraph(g, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectGraphsEqual(g, *loaded);
  // Schema names survive.
  EXPECT_TRUE(loaded->schema().VertexTypeId("user").ok());
  EXPECT_TRUE(loaded->schema().EdgeTypeId("click").ok());
  // Edge attributes survive.
  const auto nb = loaded->OutNeighbors(0, click);
  ASSERT_EQ(nb.size(), 1u);
  const auto edge_feats = loaded->EdgeFeatures(nb[0]);
  ASSERT_EQ(edge_feats.size(), 1u);
  EXPECT_FLOAT_EQ(edge_feats[0], 0.25f);
  std::remove(path.c_str());
}

TEST(GraphIoTest, RoundTripUndirected) {
  GraphBuilder gb(GraphSchema(), /*undirected=*/true);
  for (int i = 0; i < 4; ++i) gb.AddVertex();
  ASSERT_TRUE(gb.AddEdge(0, 1).ok());
  ASSERT_TRUE(gb.AddEdge(2, 3, 0, 0.5f).ok());
  auto g = std::move(gb.Build()).value();

  const std::string path = TempPath("roundtrip_undirected.algr");
  ASSERT_TRUE(SaveGraph(g, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  ExpectGraphsEqual(g, *loaded);
  std::remove(path.c_str());
}

TEST(GraphIoTest, RoundTripSyntheticTaobao) {
  auto g = std::move(gen::Taobao(gen::TaobaoSmallConfig(0.02))).value();
  const std::string path = TempPath("roundtrip_taobao.algr");
  ASSERT_TRUE(SaveGraph(g, path).ok());
  auto loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok());
  ExpectGraphsEqual(g, *loaded);
  // Attribute deduplication is re-established on load.
  EXPECT_EQ(loaded->vertex_attributes().num_records(),
            g.vertex_attributes().num_records());
  std::remove(path.c_str());
}

TEST(GraphIoTest, MissingFileFails) {
  EXPECT_EQ(LoadGraph("/nonexistent/nope.algr").status().code(),
            StatusCode::kIoError);
}

TEST(GraphIoTest, CorruptMagicFails) {
  const std::string path = TempPath("corrupt.algr");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a graph", f);
  std::fclose(f);
  EXPECT_FALSE(LoadGraph(path).ok());
  std::remove(path.c_str());
}

// Every proper prefix of a saved file is missing bytes some record needs,
// so every truncation must fail with a Status.
TEST(GraphIoTest, TruncatedFileFails) {
  const std::string saved = TempPath("fuzz_truncate_src.algr");
  ASSERT_TRUE(SaveGraph(SmallDirectedGraph(), saved).ok());
  const std::vector<char> bytes = ReadBytes(saved);
  ASSERT_GT(bytes.size(), 64u);
  const std::string path = TempPath("fuzz_truncate.algr");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteBytes(path, bytes, len);
    EXPECT_FALSE(LoadGraph(path).ok()) << "truncated to " << len << " bytes";
  }
  std::remove(saved.c_str());
  std::remove(path.c_str());
}

// A flipped bit anywhere in the first records (header, type tables, vertex
// records, edge count, first edges) may still decode to some graph, but
// it must never crash or allocate past the file size.
TEST(GraphIoTest, BitFlipsReturnStatusOrGraph) {
  const std::string saved = TempPath("fuzz_flip_src.algr");
  ASSERT_TRUE(SaveGraph(SmallDirectedGraph(), saved).ok());
  const std::vector<char> bytes = ReadBytes(saved);
  const std::string path = TempPath("fuzz_flip.algr");
  size_t failed = 0;
  for (size_t i = 0; i < bytes.size() && i < 256; ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<char> flipped = bytes;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      WriteBytes(path, flipped, flipped.size());
      auto loaded = LoadGraph(path);
      if (!loaded.ok()) {
        ++failed;
        continue;
      }
      // Whatever decoded is a well-formed graph within the file's size.
      EXPECT_LE(loaded->num_vertices(), bytes.size());
      for (VertexId v = 0; v < loaded->num_vertices(); ++v) {
        EXPECT_LT(loaded->vertex_type(v),
                  loaded->schema().num_vertex_types());
      }
    }
  }
  // The magic alone is 32 bits that must fail.
  EXPECT_GE(failed, 32u);
  std::remove(saved.c_str());
  std::remove(path.c_str());
}

TEST(GraphIoTest, NanEdgeWeightFails) {
  const std::string saved = TempPath("fuzz_nan_src.algr");
  ASSERT_TRUE(SaveGraph(SmallDirectedGraph(), saved).ok());
  std::vector<char> bytes = ReadBytes(saved);
  const float weight = 2.5f;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  size_t patched = 0;
  for (size_t i = 0; i + sizeof(float) <= bytes.size(); ++i) {
    if (std::memcmp(bytes.data() + i, &weight, sizeof(float)) == 0) {
      std::memcpy(bytes.data() + i, &nan, sizeof(float));
      ++patched;
    }
  }
  ASSERT_EQ(patched, 1u);
  const std::string path = TempPath("fuzz_nan.algr");
  WriteBytes(path, bytes, bytes.size());
  const auto loaded = LoadGraph(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(saved.c_str());
  std::remove(path.c_str());
}

TEST(GraphBuilderTest, RejectsNonFiniteWeights) {
  GraphBuilder gb;
  gb.AddVertex();
  gb.AddVertex();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float w : {std::numeric_limits<float>::quiet_NaN(), inf, -inf,
                        -1.0f}) {
    EXPECT_EQ(gb.AddEdge(0, 1, 0, w).code(), StatusCode::kInvalidArgument)
        << w;
  }
  EXPECT_TRUE(gb.AddEdge(0, 1, 0, 0.0f).ok());
}

}  // namespace
}  // namespace aligraph
