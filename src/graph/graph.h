/// \file graph.h
/// \brief The in-memory attributed heterogeneous graph (AHG) and its builder.
///
/// Storage follows the paper's Section 3.2: an adjacency table (CSR) per
/// edge type keeps only (dst, weight, AttrId); attribute payloads live in
/// separate deduplicated AttributeStores (IV for vertices, IE for edges).
/// Both out- and in-adjacency are materialized because the importance metric
/// Imp_k(v) = D_i^k / D_o^k needs in-degrees. A graph with one edge type
/// keeps only the merged CSRs, which then also serve the per-type view.

#ifndef ALIGRAPH_GRAPH_GRAPH_H_
#define ALIGRAPH_GRAPH_GRAPH_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/attributes.h"
#include "graph/schema.h"
#include "graph/types.h"

namespace aligraph {

/// \brief One adjacency-table entry: target vertex, edge weight, and the id
/// of the edge's attribute record in IE (kNoAttr when absent).
struct Neighbor {
  VertexId dst;
  float weight;
  AttrId attr;
};

/// \brief Result of a batched neighbor read: spans[i] views the adjacency
/// of the i-th requested vertex. Spans point into storage owned by the
/// graph / graph server (or its cache) and stay valid as long as that
/// storage does; the container is reusable across calls to amortize
/// allocation.
struct BatchResult {
  std::vector<std::span<const Neighbor>> spans;
  /// Per-slot success flags for reads judged by a fault injector:
  /// ok[i] == 0 means slot i exhausted its retry budget and spans[i] is
  /// empty — distinguishable from a genuinely empty adjacency, which has
  /// ok[i] == 1. A read no injector judges leaves every flag at 1.
  std::vector<uint8_t> ok;

  void Reset(size_t n) {
    spans.assign(n, {});
    ok.assign(n, 1);
  }
  size_t size() const { return spans.size(); }
  std::span<const Neighbor> operator[](size_t i) const { return spans[i]; }

  /// Number of slots whose read failed (0 when no injector judged it).
  size_t FailedSlots() const {
    size_t failed = 0;
    for (const uint8_t f : ok) failed += f == 0;
    return failed;
  }
};

/// \brief Compressed sparse row adjacency over a fixed vertex count.
class Csr {
 public:
  /// Which endpoint of an edge keys its row: the source (out-adjacency)
  /// or the destination (in-adjacency).
  enum Direction : uint8_t { kOut, kIn };

  Csr() = default;

  /// Builds one adjacency straight from an edge list with a count pass and
  /// a fill pass over it; O(n + m), no intermediate copy. Row r lists, in
  /// edge order, the far endpoint of every edge keyed to r. `mirror`
  /// (undirected storage) also keys each non-loop edge by its other
  /// endpoint. Only edges of type `type` are kept unless it is
  /// kAllEdgeTypes.
  static Csr FromEdges(VertexId num_vertices, std::span<const RawEdge> edges,
                       Direction direction, bool mirror,
                       EdgeType type = kAllEdgeTypes);

  std::span<const Neighbor> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  size_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Copy of this CSR re-indexed under a vertex permutation: the new
  /// vertex new_of_old[v] gets v's adjacency with every destination mapped
  /// through new_of_old, per-vertex neighbor ORDER preserved. Order
  /// preservation is what makes reorderings observationally invisible to
  /// samplers: the i-th neighbor of a vertex stays the i-th neighbor.
  Csr Permuted(std::span<const VertexId> new_of_old,
               std::span<const VertexId> old_of_new) const;

  size_t num_edges() const { return neighbors_.size(); }
  VertexId num_vertices() const {
    return offsets_.empty() ? 0 : static_cast<VertexId>(offsets_.size() - 1);
  }

  size_t MemoryBytes() const {
    return offsets_.size() * sizeof(uint64_t) +
           neighbors_.size() * sizeof(Neighbor);
  }

 private:
  std::vector<uint64_t> offsets_;   // size n+1
  std::vector<Neighbor> neighbors_;
};

/// \brief Immutable attributed heterogeneous graph.
///
/// Construct via GraphBuilder. Exposes per-edge-type adjacency (for
/// heterogeneous algorithms like GATNE / Metapath2Vec) and merged adjacency
/// across all types (for homogeneous algorithms like DeepWalk).
class AttributedGraph {
 public:
  VertexId num_vertices() const { return static_cast<VertexId>(vertex_type_.size()); }
  size_t num_edges() const { return num_edges_; }
  const GraphSchema& schema() const { return schema_; }
  size_t num_edge_types() const { return schema_.num_edge_types(); }
  bool undirected() const { return undirected_; }

  VertexType vertex_type(VertexId v) const { return vertex_type_[v]; }
  AttrId vertex_attr(VertexId v) const { return vertex_attr_[v]; }

  /// Attribute payload of a vertex; empty when the vertex has no attribute.
  std::span<const float> VertexFeatures(VertexId v) const {
    const AttrId a = vertex_attr_[v];
    if (a == kNoAttr) return {};
    return vertex_store_.Get(a);
  }

  /// All vertices of a given type, in ascending id order.
  std::span<const VertexId> VerticesOfType(VertexType t) const;

  /// Merged adjacency across every edge type.
  std::span<const Neighbor> OutNeighbors(VertexId v) const {
    return out_all_.Neighbors(v);
  }
  std::span<const Neighbor> InNeighbors(VertexId v) const {
    return in_all_.Neighbors(v);
  }
  size_t OutDegree(VertexId v) const { return out_all_.Degree(v); }
  size_t InDegree(VertexId v) const { return in_all_.Degree(v); }

  /// Copy of this graph with vertices relabeled under a permutation:
  /// vertex v becomes new_of_old[v]. Adjacency (merged and per-type, both
  /// directions), vertex types, and attribute references are carried over
  /// with per-vertex neighbor order preserved; attribute payload stores are
  /// shared byte-for-byte (AttrIds are not renumbered). The permutation
  /// must be a bijection over [0, n); old_of_new must be its inverse.
  /// Used by layout::ApplyLayout, which builds the permutation from a
  /// caller's access ranking (src/layout/layout.h).
  AttributedGraph Reordered(std::span<const VertexId> new_of_old,
                            std::span<const VertexId> old_of_new) const;

  /// Per-edge-type adjacency. A graph with one edge type serves these
  /// from the merged CSRs, so both views share one copy.
  std::span<const Neighbor> OutNeighbors(VertexId v, EdgeType t) const {
    return OutCsr(t).Neighbors(v);
  }
  std::span<const Neighbor> InNeighbors(VertexId v, EdgeType t) const {
    return InCsr(t).Neighbors(v);
  }
  size_t OutDegree(VertexId v, EdgeType t) const {
    return OutCsr(t).Degree(v);
  }
  size_t InDegree(VertexId v, EdgeType t) const { return InCsr(t).Degree(v); }

  const AttributeStore& vertex_attributes() const { return vertex_store_; }
  const AttributeStore& edge_attributes() const { return edge_store_; }

  /// Edge attribute payload; empty when the edge carries none.
  std::span<const float> EdgeFeatures(const Neighbor& nb) const {
    if (nb.attr == kNoAttr) return {};
    return edge_store_.Get(nb.attr);
  }

  /// Total resident bytes of adjacency plus attribute stores.
  size_t MemoryBytes() const;

  /// One-line size description for logs.
  std::string ToString() const;

 private:
  friend class GraphBuilder;

  const Csr& OutCsr(EdgeType t) const {
    return out_by_type_.empty() ? out_all_ : out_by_type_[t];
  }
  const Csr& InCsr(EdgeType t) const {
    return in_by_type_.empty() ? in_all_ : in_by_type_[t];
  }

  GraphSchema schema_;
  bool undirected_ = false;
  size_t num_edges_ = 0;
  std::vector<VertexType> vertex_type_;
  std::vector<AttrId> vertex_attr_;
  std::vector<std::vector<VertexId>> vertices_by_type_;
  Csr out_all_;
  Csr in_all_;
  std::vector<Csr> out_by_type_;  // empty when there is one edge type
  std::vector<Csr> in_by_type_;   // empty when there is one edge type
  AttributeStore vertex_store_;
  AttributeStore edge_store_;
};

/// \brief Accumulates vertices and edges, then freezes them into an
/// AttributedGraph.
///
/// Vertices get dense sequential ids in insertion order. For undirected
/// graphs every added edge is stored in both directions with equal weight.
class GraphBuilder {
 public:
  explicit GraphBuilder(GraphSchema schema = GraphSchema(),
                        bool undirected = false)
      : schema_(std::move(schema)), undirected_(undirected) {}

  /// Adds one vertex; returns its id. An empty attribute vector means "no
  /// attribute record".
  VertexId AddVertex(VertexType type = 0,
                     const std::vector<float>& attributes = {});

  /// Adds an edge. Endpoints must already exist, the type be registered and
  /// the weight be finite and non-negative; InvalidArgument otherwise.
  Status AddEdge(VertexId src, VertexId dst, EdgeType type = 0,
                 float weight = 1.0f,
                 const std::vector<float>& attributes = {});

  VertexId num_vertices() const { return static_cast<VertexId>(vertex_type_.size()); }
  size_t num_edges() const { return edges_.size(); }

  /// Reserves room for `n` more AddEdge calls.
  void ReserveEdges(size_t n) { edges_.reserve(edges_.size() + n); }

  /// Freezes into an immutable graph; the builder is consumed.
  Result<AttributedGraph> Build();

 private:
  GraphSchema schema_;
  bool undirected_;
  std::vector<VertexType> vertex_type_;
  std::vector<AttrId> vertex_attr_;
  std::vector<RawEdge> edges_;
  AttributeStore vertex_store_;
  AttributeStore edge_store_;
};

}  // namespace aligraph

#endif  // ALIGRAPH_GRAPH_GRAPH_H_
