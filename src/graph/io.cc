#include "graph/io.h"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

namespace aligraph {
namespace {

constexpr uint32_t kMagic = 0x52474c41u;  // "ALGR"
constexpr uint32_t kVersion = 1;

class Writer {
 public:
  explicit Writer(std::FILE* f) : f_(f) {}

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void F32(float v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Floats(std::span<const float> v) {
    U32(static_cast<uint32_t>(v.size()));
    Raw(v.data(), v.size() * sizeof(float));
  }
  bool ok() const { return ok_; }

 private:
  void Raw(const void* p, size_t n) {
    if (n > 0 && std::fwrite(p, 1, n, f_) != n) ok_ = false;
  }
  std::FILE* f_;
  bool ok_ = true;
};

// Reads the file's records in order. Every length prefix is checked against
// the bytes left in the file before anything is allocated, so a corrupt
// count fails the read instead of allocating up to 4 GiB.
class Reader {
 public:
  explicit Reader(std::FILE* f) : f_(f) {
    if (std::fseek(f_, 0, SEEK_END) == 0) {
      const long size = std::ftell(f_);
      if (size > 0) remaining_ = static_cast<uint64_t>(size);
    }
    std::rewind(f_);
  }

  uint32_t U32() {
    uint32_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  uint64_t U64() {
    uint64_t v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  float F32() {
    float v = 0;
    Raw(&v, sizeof(v));
    return v;
  }
  std::string Str() {
    const uint32_t n = U32();
    if (!Fits(n)) return {};
    std::string s(n, '\0');
    Raw(s.data(), n);
    return s;
  }
  std::vector<float> Floats() {
    const uint32_t n = U32();
    if (!Fits(uint64_t{n} * sizeof(float))) return {};
    std::vector<float> v(n);
    Raw(v.data(), n * sizeof(float));
    return v;
  }
  bool ok() const { return ok_; }

 private:
  // False (and the reader failed) unless `bytes` more bytes are left.
  bool Fits(uint64_t bytes) {
    if (bytes > remaining_) ok_ = false;
    return ok_;
  }
  void Raw(void* p, size_t n) {
    if (n == 0 || !Fits(n)) return;
    if (std::fread(p, 1, n, f_) != n) {
      ok_ = false;
      return;
    }
    remaining_ -= n;
  }
  std::FILE* f_;
  uint64_t remaining_ = 0;
  bool ok_ = true;
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

Status SaveGraph(const AttributedGraph& graph, const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for writing: " + path);
  Writer w(f.get());

  w.U32(kMagic);
  w.U32(kVersion);
  w.U32(graph.undirected() ? 1u : 0u);

  const GraphSchema& schema = graph.schema();
  w.U32(static_cast<uint32_t>(schema.num_vertex_types()));
  for (size_t t = 0; t < schema.num_vertex_types(); ++t) {
    w.Str(schema.VertexTypeName(static_cast<VertexType>(t)));
  }
  w.U32(static_cast<uint32_t>(schema.num_edge_types()));
  for (size_t t = 0; t < schema.num_edge_types(); ++t) {
    w.Str(schema.EdgeTypeName(static_cast<EdgeType>(t)));
  }

  const VertexId n = graph.num_vertices();
  w.U32(n);
  for (VertexId v = 0; v < n; ++v) {
    w.U32(graph.vertex_type(v));
    w.Floats(graph.VertexFeatures(v));
  }

  // Count the stored (forward) edges; undirected graphs store each edge
  // once with src <= dst's first occurrence convention used at build time,
  // but the builder mirrored them, so dump src<=dst half only.
  uint64_t edge_count = 0;
  const size_t num_types = graph.num_edge_types();
  for (VertexId v = 0; v < n; ++v) {
    for (size_t t = 0; t < num_types; ++t) {
      for (const Neighbor& nb : graph.OutNeighbors(v, static_cast<EdgeType>(t))) {
        if (graph.undirected() && nb.dst < v) continue;
        ++edge_count;
      }
    }
  }
  w.U64(edge_count);
  for (VertexId v = 0; v < n; ++v) {
    for (size_t t = 0; t < num_types; ++t) {
      for (const Neighbor& nb : graph.OutNeighbors(v, static_cast<EdgeType>(t))) {
        if (graph.undirected() && nb.dst < v) continue;
        w.U32(v);
        w.U32(nb.dst);
        w.U32(static_cast<uint32_t>(t));
        w.F32(nb.weight);
        const auto edge_feats = graph.EdgeFeatures(nb);
        w.Floats(edge_feats);
      }
    }
  }
  if (!w.ok()) return Status::IoError("short write: " + path);
  return Status::OK();
}

Result<AttributedGraph> LoadGraph(const std::string& path) {
  std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open for reading: " + path);
  Reader r(f.get());

  if (r.U32() != kMagic) return Status::InvalidArgument("bad magic");
  const uint32_t version = r.U32();
  if (version != kVersion) {
    return Status::NotSupported("unsupported version " +
                                std::to_string(version));
  }
  const bool undirected = (r.U32() & 1u) != 0;

  GraphSchema schema;
  const uint32_t num_vtypes = r.U32();
  if (!r.ok() || num_vtypes == 0 || num_vtypes > 65535) {
    return Status::InvalidArgument("corrupt vertex type table");
  }
  for (uint32_t t = 0; t < num_vtypes; ++t) schema.AddVertexType(r.Str());
  const uint32_t num_etypes = r.U32();
  if (!r.ok() || num_etypes == 0 || num_etypes > 65535) {
    return Status::InvalidArgument("corrupt edge type table");
  }
  for (uint32_t t = 0; t < num_etypes; ++t) schema.AddEdgeType(r.Str());

  GraphBuilder gb(schema, undirected);
  const uint32_t n = r.U32();
  for (uint32_t v = 0; v < n && r.ok(); ++v) {
    const uint32_t type = r.U32();
    const std::vector<float> attrs = r.Floats();
    if (type >= schema.num_vertex_types()) {
      return Status::InvalidArgument("corrupt vertex record");
    }
    gb.AddVertex(static_cast<VertexType>(type), attrs);
  }

  const uint64_t m = r.U64();
  for (uint64_t e = 0; e < m && r.ok(); ++e) {
    const uint32_t src = r.U32();
    const uint32_t dst = r.U32();
    const uint32_t type = r.U32();
    const float weight = r.F32();
    const std::vector<float> attrs = r.Floats();
    ALIGRAPH_RETURN_NOT_OK(gb.AddEdge(src, dst,
                                      static_cast<EdgeType>(type), weight,
                                      attrs));
  }
  if (!r.ok()) return Status::IoError("short read / corrupt file: " + path);
  return gb.Build();
}

}  // namespace aligraph
