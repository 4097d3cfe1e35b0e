#include "graph/graph.h"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/logging.h"

namespace aligraph {

namespace {

// Calls emit(row, neighbor) for every entry a CSR of `direction` holds, in
// edge order: the one place that says which edge lands in which row.
template <typename Emit>
void ForEachEntry(std::span<const RawEdge> edges, Csr::Direction direction,
                  bool mirror, EdgeType type, Emit&& emit) {
  for (const RawEdge& e : edges) {
    if (type != kAllEdgeTypes && e.type != type) continue;
    const VertexId row = direction == Csr::kOut ? e.src : e.dst;
    const VertexId far = direction == Csr::kOut ? e.dst : e.src;
    emit(row, Neighbor{far, e.weight, e.attr});
    if (mirror && row != far) emit(far, Neighbor{row, e.weight, e.attr});
  }
}

}  // namespace

Csr Csr::FromEdges(VertexId num_vertices, std::span<const RawEdge> edges,
                   Direction direction, bool mirror, EdgeType type) {
  Csr c;
  c.offsets_.assign(static_cast<size_t>(num_vertices) + 1, 0);
  uint64_t* const count = c.offsets_.data() + 1;
  ForEachEntry(edges, direction, mirror, type,
               [&](VertexId row, const Neighbor&) {
                 ALIGRAPH_CHECK_LT(row, num_vertices);
                 ++count[row];
               });
  for (size_t i = 1; i < c.offsets_.size(); ++i) {
    c.offsets_[i] += c.offsets_[i - 1];
  }
  c.neighbors_.resize(c.offsets_.back());
  std::vector<uint64_t> cursor(c.offsets_.begin(), c.offsets_.end() - 1);
  uint64_t* const next = cursor.data();
  Neighbor* const out = c.neighbors_.data();
  ForEachEntry(edges, direction, mirror, type,
               [&](VertexId row, const Neighbor& nb) { out[next[row]++] = nb; });
  return c;
}

Csr Csr::Permuted(std::span<const VertexId> new_of_old,
                  std::span<const VertexId> old_of_new) const {
  const VertexId n = num_vertices();
  ALIGRAPH_CHECK_EQ(new_of_old.size(), static_cast<size_t>(n));
  ALIGRAPH_CHECK_EQ(old_of_new.size(), static_cast<size_t>(n));
  Csr out;
  out.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId nv = 0; nv < n; ++nv) {
    out.offsets_[nv + 1] =
        out.offsets_[nv] + static_cast<uint64_t>(Degree(old_of_new[nv]));
  }
  out.neighbors_.resize(neighbors_.size());
  for (VertexId nv = 0; nv < n; ++nv) {
    const std::span<const Neighbor> src = Neighbors(old_of_new[nv]);
    Neighbor* dst = out.neighbors_.data() + out.offsets_[nv];
    for (size_t i = 0; i < src.size(); ++i) {
      dst[i] = src[i];
      dst[i].dst = new_of_old[src[i].dst];
    }
  }
  return out;
}

AttributedGraph AttributedGraph::Reordered(
    std::span<const VertexId> new_of_old,
    std::span<const VertexId> old_of_new) const {
  const VertexId n = num_vertices();
  ALIGRAPH_CHECK_EQ(new_of_old.size(), static_cast<size_t>(n));
  ALIGRAPH_CHECK_EQ(old_of_new.size(), static_cast<size_t>(n));

  AttributedGraph g;
  g.schema_ = schema_;
  g.undirected_ = undirected_;
  g.num_edges_ = num_edges_;
  g.vertex_store_ = vertex_store_;
  g.edge_store_ = edge_store_;

  g.vertex_type_.resize(n);
  g.vertex_attr_.resize(n);
  for (VertexId nv = 0; nv < n; ++nv) {
    const VertexId ov = old_of_new[nv];
    g.vertex_type_[nv] = vertex_type_[ov];
    g.vertex_attr_[nv] = vertex_attr_[ov];
  }
  // Per-type listings keep the "ascending id" contract in the NEW space.
  g.vertices_by_type_.resize(schema_.num_vertex_types());
  for (VertexId nv = 0; nv < n; ++nv) {
    g.vertices_by_type_[g.vertex_type_[nv]].push_back(nv);
  }

  g.out_all_ = out_all_.Permuted(new_of_old, old_of_new);
  g.in_all_ = in_all_.Permuted(new_of_old, old_of_new);
  g.out_by_type_.reserve(out_by_type_.size());
  g.in_by_type_.reserve(in_by_type_.size());
  for (const Csr& c : out_by_type_) {
    g.out_by_type_.push_back(c.Permuted(new_of_old, old_of_new));
  }
  for (const Csr& c : in_by_type_) {
    g.in_by_type_.push_back(c.Permuted(new_of_old, old_of_new));
  }
  return g;
}

std::span<const VertexId> AttributedGraph::VerticesOfType(VertexType t) const {
  ALIGRAPH_CHECK_LT(t, vertices_by_type_.size());
  return vertices_by_type_[t];
}

size_t AttributedGraph::MemoryBytes() const {
  size_t bytes = out_all_.MemoryBytes() + in_all_.MemoryBytes();
  for (const auto& c : out_by_type_) bytes += c.MemoryBytes();
  for (const auto& c : in_by_type_) bytes += c.MemoryBytes();
  bytes += vertex_type_.size() * sizeof(VertexType);
  bytes += vertex_attr_.size() * sizeof(AttrId);
  bytes += vertex_store_.DedupBytes() + edge_store_.DedupBytes();
  return bytes;
}

std::string AttributedGraph::ToString() const {
  std::ostringstream os;
  os << "AttributedGraph{n=" << num_vertices() << " m=" << num_edges_
     << " vtypes=" << schema_.num_vertex_types()
     << " etypes=" << schema_.num_edge_types()
     << " bytes=" << MemoryBytes() << "}";
  return os.str();
}

VertexId GraphBuilder::AddVertex(VertexType type,
                                 const std::vector<float>& attributes) {
  ALIGRAPH_CHECK_LT(type, schema_.num_vertex_types());
  const VertexId id = static_cast<VertexId>(vertex_type_.size());
  vertex_type_.push_back(type);
  vertex_attr_.push_back(attributes.empty() ? kNoAttr
                                            : vertex_store_.Intern(attributes));
  return id;
}

Status GraphBuilder::AddEdge(VertexId src, VertexId dst, EdgeType type,
                             float weight,
                             const std::vector<float>& attributes) {
  if (src >= vertex_type_.size() || dst >= vertex_type_.size()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  if (type >= schema_.num_edge_types()) {
    return Status::InvalidArgument("unregistered edge type");
  }
  // NaN compares false with everything, so `weight < 0` alone lets it in.
  if (!std::isfinite(weight) || weight < 0) {
    return Status::InvalidArgument(
        "edge weight must be finite and non-negative");
  }
  RawEdge e;
  e.src = src;
  e.dst = dst;
  e.type = type;
  e.weight = weight;
  e.attr = attributes.empty() ? kNoAttr : edge_store_.Intern(attributes);
  edges_.push_back(e);
  return Status::OK();
}

Result<AttributedGraph> GraphBuilder::Build() {
  AttributedGraph g;
  g.schema_ = std::move(schema_);
  g.undirected_ = undirected_;
  g.vertex_type_ = std::move(vertex_type_);
  g.vertex_attr_ = std::move(vertex_attr_);
  g.vertex_store_ = std::move(vertex_store_);
  g.edge_store_ = std::move(edge_store_);
  g.num_edges_ = edges_.size();

  const VertexId n = static_cast<VertexId>(g.vertex_type_.size());
  const size_t num_types = g.schema_.num_edge_types();

  g.vertices_by_type_.resize(g.schema_.num_vertex_types());
  for (VertexId v = 0; v < n; ++v) {
    g.vertices_by_type_[g.vertex_type_[v]].push_back(v);
  }

  g.out_all_ = Csr::FromEdges(n, edges_, Csr::kOut, undirected_);
  g.in_all_ = Csr::FromEdges(n, edges_, Csr::kIn, undirected_);
  // One edge type: the typed accessors serve the merged CSRs.
  if (num_types > 1) {
    g.out_by_type_.reserve(num_types);
    g.in_by_type_.reserve(num_types);
    for (size_t t = 0; t < num_types; ++t) {
      const auto type = static_cast<EdgeType>(t);
      g.out_by_type_.push_back(
          Csr::FromEdges(n, edges_, Csr::kOut, undirected_, type));
      g.in_by_type_.push_back(
          Csr::FromEdges(n, edges_, Csr::kIn, undirected_, type));
    }
  }
  edges_.clear();
  edges_.shrink_to_fit();
  return g;
}

}  // namespace aligraph
