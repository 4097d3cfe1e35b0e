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
/// the Placement's dense index (Placement::local_row / replica_rank), so a
/// read costs a few array loads and no hash lookup.
///
/// Two extensions over the plain owned store:
///   - **Replica storage.** A server may additionally hold full adjacency
///     copies of hub vertices owned elsewhere (Placement replica sets);
///     replica reads are served at local cost.
///   - **Epoch-versioned deltas.** Online updates never mutate the base
///     CSR. Instead the cluster's update path publishes an immutable delta
///     table mapping vertex -> ascending chain of adjacency versions; a
///     read at an epoch (`Read`) resolves to the newest version at or
///     below it, falling back to the base CSR row. Published version
///     payloads are immutable and retained until no pinned reader can reach
///     them (see epoch.h), so spans returned to a pinned reader stay valid
///     for the pin's lifetime.
#ifndef ALIGRAPH_CLUSTER_GRAPH_SERVER_H_
#define ALIGRAPH_CLUSTER_GRAPH_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/epoch.h"
#include "graph/graph.h"
#include "partition/partitioner.h"
#include "storage/neighbor_cache.h"

namespace aligraph {

/// \brief One immutable adjacency snapshot of one vertex at one epoch,
/// type-segmented exactly like the base storage.
struct AdjVersion {
  uint64_t epoch = 0;
  std::vector<Neighbor> neighbors;     // segmented by type
  std::vector<uint32_t> type_offsets;  // size num_edge_types + 1
};
using AdjVersionPtr = std::shared_ptr<const AdjVersion>;

/// Vertex -> ascending-epoch chain of published versions. Tables are
/// immutable once published; the updater copies-on-write.
using DeltaTable =
    std::unordered_map<VertexId, std::vector<AdjVersionPtr>>;

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
    if (Owns(v)) return placement_->local_row[v];
    const uint32_t rank = placement_->ReplicaRank(v);
    return rank == kNoRow ? kNoRow : replica_row_[rank];
  }

  size_t num_vertices() const { return owned_.size(); }
  size_t num_replicas() const { return replicas_.size(); }
  /// Out-edges of the owned vertices (replica copies excluded).
  size_t num_edges() const { return offsets_[owned_.size() * num_types_]; }

  /// Out-neighbors of a stored vertex at the latest epoch, restricted to
  /// one edge type unless `type` is kAllEdgeTypes. Empty when v has no
  /// copy here.
  std::span<const Neighbor> Neighbors(VertexId v,
                                      EdgeType type = kAllEdgeTypes) const {
    const auto delta = delta_snapshot();
    return Read(v, RowOf(v), type, kEpochCurrent, delta.get());
  }

  /// The read primitive: v's adjacency at `epoch` given its row here
  /// (RowOf(v)) and a delta-table snapshot (null when never updated).
  /// Batch readers take one snapshot per call and reuse it for every slot.
  std::span<const Neighbor> Read(VertexId v, uint32_t row, EdgeType type,
                                 uint64_t epoch,
                                 const DeltaTable* delta) const;

  /// True when `delta` (a delta-table snapshot of a server holding v; null
  /// when never updated) has a version of v at or below `epoch`. Pruning
  /// keeps the newest version at or below every live reader's epoch and
  /// never drops a vertex's chain, so for any epoch a live reader holds this
  /// is exactly "v's first update is at or before `epoch`".
  static bool Updated(const DeltaTable* delta, VertexId v, uint64_t epoch) {
    return delta != nullptr && FindVersion(delta, v, epoch) != nullptr;
  }

  /// Attribute id of a stored vertex (kNoAttr when absent). Attributes are
  /// immutable under online updates.
  AttrId VertexAttr(VertexId v) const {
    const uint32_t row = RowOf(v);
    return row == kNoRow ? kNoAttr : RowAttr(row);
  }
  /// Attribute id stored at a row (see RowOf).
  AttrId RowAttr(uint32_t row) const { return attrs_[row]; }

  /// The vertices this server owns, in ascending id order (row order).
  const std::vector<VertexId>& owned_vertices() const { return owned_; }

  /// Current delta table (null until the first PublishDelta).
  std::shared_ptr<const DeltaTable> delta_snapshot() const;

  /// Atomically replaces the delta table. Called by the cluster's update
  /// path with a fully built immutable table; readers see either the old or
  /// the new table, never a partial one. The previous table is released
  /// after the swap, outside the lock readers take.
  void PublishDelta(std::shared_ptr<const DeltaTable> table);

  /// Installs / accesses the server-local neighbor cache (may be null).
  void set_neighbor_cache(std::unique_ptr<NeighborCache> cache) {
    neighbor_cache_ = std::move(cache);
  }
  NeighborCache* neighbor_cache() const { return neighbor_cache_.get(); }

  /// Approximate resident bytes of the adjacency storage (owned + replica
  /// CSR, row index + published deltas).
  size_t MemoryBytes() const;

 private:
  /// Newest version of v at or below epoch in `delta`, or null. The
  /// returned pointer's payload outlives the call per the retention
  /// contract.
  static const AdjVersion* FindVersion(const DeltaTable* delta, VertexId v,
                                       uint64_t epoch);

  WorkerId id_;
  size_t num_types_;
  const Placement* placement_;
  std::vector<VertexId> owned_;     // rows [0, owned_.size())
  std::vector<VertexId> replicas_;  // rows [owned_.size(), ...)
  /// Replica rank -> row here (kNoRow when this server holds no copy).
  std::vector<uint32_t> replica_row_;
  std::vector<uint64_t> offsets_;  // rows * num_types_ + 1
  std::vector<Neighbor> neighbors_;
  std::vector<AttrId> attrs_;  // one per row
  std::unique_ptr<NeighborCache> neighbor_cache_;

  // Published updates. has_delta_ is the hot-path probe that keeps the
  // never-updated case lock-free; the mutex only guards the pointer swap.
  mutable std::mutex delta_mu_;
  std::shared_ptr<const DeltaTable> delta_;
  std::atomic<bool> has_delta_{false};
};

}  // namespace aligraph

#endif  // ALIGRAPH_CLUSTER_GRAPH_SERVER_H_
