/// \file graph_server.h
/// \brief One worker of the simulated cluster: owns a source-partitioned
/// subgraph stored as one type-segmented CSR over a dense local id space,
/// plus an optional neighbor cache (the paper's front cache).
///
/// Layout. The server's rows are its owned vertices in ascending id order,
/// then its replica copies in ascending id order (the owned and the replica
/// segment of one CSR). Row r's adjacency is neighbors_[offsets_[r*T] ..
/// offsets_[(r+1)*T]), split by edge type at offsets_[r*T + t], and its
/// vertex attribute is attrs_[r]. A global id resolves to its row through
/// the Placement's dense index: one load of its route word
/// (Placement::route: owner, owner's row, has-replicas flag), and for a
/// replicated vertex read off its owner, its replica rank and this
/// server's rank -> row array. No hash lookup is on that path. A batch
/// read prefetches the line a Read or RowAttr will load first
/// (PrefetchRow, PrefetchAttr) while it routes the slots after it.
/// neighbors_, the one row array that passes 4 MB on a khop_cluster-sized
/// server, is a HugePageVector like the route words: its 2 MB-aligned
/// interior is advised onto huge pages, so a random span read rarely walks
/// the page table. offsets_ and attrs_ (about 2.5 MB and 1.25 MB there) stay
/// plain vectors.
///
/// Two extensions over the plain owned store:
///   - **Replica storage.** A server may additionally hold full adjacency
///     copies of hub vertices owned elsewhere (Placement replica sets);
///     replica reads are served at local cost.
///   - **Epoch-versioned reads.** Online updates never mutate the base
///     CSR. The cluster keeps one version chain per updated vertex (its
///     VersionIndex) that every copy of the vertex shares; a read passes
///     the version it resolved for its epoch (`Read`), or null to read the
///     base row. Version payloads are immutable and outlive every reader
///     pinned at or above their epoch (see epoch.h).
#ifndef ALIGRAPH_CLUSTER_GRAPH_SERVER_H_
#define ALIGRAPH_CLUSTER_GRAPH_SERVER_H_

#include <memory>
#include <span>
#include <vector>

#include "common/huge_pages.h"
#include "common/prefetch.h"
#include "graph/graph.h"
#include "partition/partitioner.h"
#include "storage/neighbor_cache.h"

namespace aligraph {

/// \brief One immutable adjacency snapshot of one vertex at one epoch,
/// type-segmented exactly like the base storage. A vertex's versions form a
/// chain from the newest through `older`.
struct AdjVersion {
  uint64_t epoch = 0;
  std::vector<Neighbor> neighbors;     // segmented by type
  std::vector<uint32_t> type_offsets;  // size num_edge_types + 1
  AdjVersion* older = nullptr;         // next older version, or null

  std::span<const Neighbor> Neighbors(EdgeType type) const {
    if (type == kAllEdgeTypes) return neighbors;
    return {neighbors.data() + type_offsets[type],
            static_cast<size_t>(type_offsets[type + 1] - type_offsets[type])};
  }
};

/// \brief Per-server local storage of the vertices it owns (and replicates).
class GraphServer {
 public:
  static constexpr uint32_t kNoRow = Placement::kNoRow;

  /// Builds worker `id`'s storage straight from `graph`: a count pass sizes
  /// the CSR from per-type degrees, a fill pass copies each stored vertex's
  /// typed adjacency lists in type order. `placement` must have its rows
  /// indexed (Placement::IndexRows) and must outlive the server.
  GraphServer(WorkerId id, const AttributedGraph& graph,
              const Placement& placement);

  WorkerId id() const { return id_; }

  bool Owns(VertexId v) const { return placement_->OwnerOf(v) == id_; }
  /// True when any copy (owned or replica) of v lives here.
  bool ServesCopy(VertexId v) const { return RowOf(v) != kNoRow; }

  /// v's row in this server's table: its owned row, else its replica row,
  /// else kNoRow.
  uint32_t RowOf(VertexId v) const {
    const Placement::RouteWord word = placement_->route[v];
    if (word.owner() == id_) return word.row();
    return word.replicated() ? ReplicaRow(placement_->replica_rank[v])
                             : kNoRow;
  }
  /// The row of this server's copy of the vertex with replica rank `rank`,
  /// or kNoRow when it holds none.
  uint32_t ReplicaRow(uint32_t rank) const { return replica_row_[rank]; }

  size_t num_vertices() const { return owned_.size(); }
  size_t num_replicas() const { return replicas_.size(); }
  /// Out-edges of the owned vertices (replica copies excluded).
  size_t num_edges() const { return offsets_[owned_.size() * num_types_]; }

  /// Out-neighbors of a stored vertex as built, restricted to one edge
  /// type unless `type` is kAllEdgeTypes. Empty when v has no copy here.
  /// Updates are not applied: Cluster::GetNeighbors reads them.
  std::span<const Neighbor> Neighbors(VertexId v,
                                      EdgeType type = kAllEdgeTypes) const {
    return Read(RowOf(v), type, nullptr);
  }

  /// The read primitive: `ver` when non-null (the vertex's version the
  /// caller resolved for its epoch), else the base adjacency at `row`.
  std::span<const Neighbor> Read(uint32_t row, EdgeType type,
                                 const AdjVersion* ver) const {
    if (ver != nullptr) return ver->Neighbors(type);
    if (row == kNoRow) return {};
    const size_t begin = row * num_types_;
    const size_t first = type == kAllEdgeTypes ? begin : begin + type;
    const size_t last = type == kAllEdgeTypes ? begin + num_types_ : first + 1;
    return {neighbors_.data() + offsets_[first],
            static_cast<size_t>(offsets_[last] - offsets_[first])};
  }

  /// Attribute id of a stored vertex (kNoAttr when absent). Attributes are
  /// immutable under online updates.
  AttrId VertexAttr(VertexId v) const {
    const uint32_t row = RowOf(v);
    return row == kNoRow ? kNoAttr : RowAttr(row);
  }
  /// Attribute id stored at a row (see RowOf).
  AttrId RowAttr(uint32_t row) const { return attrs_[row]; }

  /// Prefetch hints: the first line Read(row, ...) loads from the base
  /// storage, and the line RowAttr(row) loads.
  void PrefetchRow(uint32_t row) const {
    ALIGRAPH_PREFETCH(offsets_.data() + row * num_types_);
  }
  void PrefetchAttr(uint32_t row) const {
    ALIGRAPH_PREFETCH(attrs_.data() + row);
  }

  /// The vertices this server owns, in ascending id order (row order).
  const std::vector<VertexId>& owned_vertices() const { return owned_; }

  /// Installs / accesses the server-local neighbor cache (may be null).
  void set_neighbor_cache(std::unique_ptr<NeighborCache> cache) {
    neighbor_cache_ = std::move(cache);
  }
  NeighborCache* neighbor_cache() const { return neighbor_cache_.get(); }

  /// Approximate resident bytes of the base storage (owned + replica CSR
  /// and row index).
  size_t MemoryBytes() const;

 private:
  WorkerId id_;
  size_t num_types_;
  const Placement* placement_;
  std::vector<VertexId> owned_;     // rows [0, owned_.size())
  std::vector<VertexId> replicas_;  // rows [owned_.size(), ...)
  /// Replica rank -> row here (kNoRow when this server holds no copy).
  std::vector<uint32_t> replica_row_;
  std::vector<uint64_t> offsets_;  // rows * num_types_ + 1
  // On 2 MB pages where the host allows it (HugePageAllocator).
  HugePageVector<Neighbor> neighbors_;
  std::vector<AttrId> attrs_;  // one per row
  std::unique_ptr<NeighborCache> neighbor_cache_;
};

}  // namespace aligraph

#endif  // ALIGRAPH_CLUSTER_GRAPH_SERVER_H_
