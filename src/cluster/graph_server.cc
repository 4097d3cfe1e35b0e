#include "cluster/graph_server.h"

#include "common/logging.h"

namespace aligraph {

GraphServer::GraphServer(WorkerId id, const AttributedGraph& graph,
                         const Placement& placement)
    : id_(id), num_types_(graph.num_edge_types()), placement_(&placement) {
  ALIGRAPH_CHECK(placement.route.size() == graph.num_vertices())
      << "placement rows not indexed";
  const VertexId n = graph.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    if (placement.OwnerOf(v) == id) owned_.push_back(v);
  }
  if (!placement.replica_rank.empty()) {
    replica_row_.assign(placement.replicas.size(), kNoRow);
    for (VertexId v = 0; v < n; ++v) {
      const uint32_t rank = placement.replica_rank[v];
      if (rank == kNoRow) continue;
      for (const WorkerId r : placement.ReplicasOf(v)) {
        if (r != id) continue;
        replica_row_[rank] =
            static_cast<uint32_t>(owned_.size() + replicas_.size());
        replicas_.push_back(v);
      }
    }
  }

  // Count pass: row offsets from per-type degrees, owned rows then replica
  // rows — the row order Placement::route and replica_row_ name.
  const size_t rows = owned_.size() + replicas_.size();
  auto vertex_of = [this](size_t row) {
    return row < owned_.size() ? owned_[row] : replicas_[row - owned_.size()];
  };
  offsets_.resize(rows * num_types_ + 1);
  offsets_[0] = 0;
  attrs_.resize(rows);
  for (size_t row = 0, k = 0; row < rows; ++row) {
    const VertexId v = vertex_of(row);
    attrs_[row] = graph.vertex_attr(v);
    for (size_t t = 0; t < num_types_; ++t, ++k) {
      offsets_[k + 1] =
          offsets_[k] + graph.OutDegree(v, static_cast<EdgeType>(t));
    }
  }
  // Fill pass: the same walk appends each typed list, so every copy of a
  // vertex (primary or replica) holds byte-identical adjacency.
  neighbors_.reserve(offsets_.back());
  for (size_t row = 0; row < rows; ++row) {
    const VertexId v = vertex_of(row);
    for (size_t t = 0; t < num_types_; ++t) {
      const auto typed = graph.OutNeighbors(v, static_cast<EdgeType>(t));
      neighbors_.insert(neighbors_.end(), typed.begin(), typed.end());
    }
  }
}

size_t GraphServer::MemoryBytes() const {
  return offsets_.size() * sizeof(uint64_t) +
         neighbors_.size() * sizeof(Neighbor) +
         attrs_.size() * sizeof(AttrId) +
         (owned_.size() + replicas_.size() + replica_row_.size()) *
             sizeof(uint32_t);
}

}  // namespace aligraph
