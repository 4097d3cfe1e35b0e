/// \file partitioner.h
/// \brief Graph-partitioning plugin interface, the replica-aware Placement
/// the storage layer consumes, and the built-in algorithms of the paper's
/// storage layer (Section 3.2):
///
///   1. METIS-style multilevel partitioning (sparse graphs),
///   2. hash edge-cut and greedy vertex-cut (dense graphs),
///   3. 2-D grid partitioning (fixed worker count),
///   4. streaming linear-deterministic-greedy (frequent edge updates),
///   5. skew-aware hybrid: vertex-cut/replicate the hubs, delegate the
///      tail to any of the above (GLISP-style, for power-law graphs).
///
/// Per Section 3.3 the distributed graph is partitioned by source vertex: a
/// partitioner's primary output is the vertex -> worker ownership map. A
/// Placement extends that map with optional per-vertex replica sets — a
/// replicated vertex's adjacency is stored on its primary owner AND every
/// replica worker, so hub reads are served locally (or spread across
/// copies) instead of hammering one hot server. A placement with an empty
/// replica table is exactly the historical single-owner plan, and
/// PartitionPlan remains as an alias for that degenerate form.

#ifndef ALIGRAPH_PARTITION_PARTITIONER_H_
#define ALIGRAPH_PARTITION_PARTITIONER_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/huge_pages.h"
#include "common/status.h"
#include "graph/graph.h"

namespace aligraph {

/// \brief Result of partitioning: ownership map, worker count and the
/// (possibly empty) replica table.
struct Placement {
  /// Marks "no row": a vertex without a replica rank, or a vertex a server
  /// holds no copy of.
  static constexpr uint32_t kNoRow = ~uint32_t{0};

  uint32_t num_workers = 1;
  std::vector<WorkerId> vertex_owner;  ///< size n; primary owner per vertex
  /// Replica workers per replicated vertex, primary excluded, each list
  /// sorted ascending and duplicate-free. Vertices absent from the table
  /// live only on their primary owner — the degenerate single-owner form.
  std::unordered_map<VertexId, std::vector<WorkerId>> replicas;

  /// Largest worker count a route word's owner field holds.
  static constexpr uint32_t kMaxWorkers = uint32_t{1} << 31;

  /// Where v's primary copy lives, packed into one 8-byte word so that a
  /// read resolves it with one load: v's row on its owner in bits 0-31,
  /// the owner in bits 32-62, and bit 63 set when v has replicas.
  struct RouteWord {
    uint64_t bits = 0;

    static RouteWord Pack(WorkerId owner, uint32_t row, bool replicated) {
      return {uint64_t{row} | (uint64_t{owner} << 32) |
              (uint64_t{replicated} << 63)};
    }
    uint32_t row() const { return static_cast<uint32_t>(bits); }
    WorkerId owner() const {
      return static_cast<WorkerId>((bits >> 32) & (kMaxWorkers - 1));
    }
    bool replicated() const { return (bits >> 63) != 0; }
  };

  /// Dense global -> local index over the servers' vertex tables, derived
  /// from vertex_owner and replicas by IndexRows() (Cluster::Build calls
  /// it; a placement that only routes needs neither). Every server numbers
  /// the vertices it owns 0, 1, ... in ascending id order: route[v] holds
  /// v's row on its owner, with the owner and the has-replicas flag.
  /// replica_rank[v] is v's position among all replicated vertices in
  /// ascending id order (kNoRow when v has a single copy); each replica
  /// holder maps that rank to a row of its own. Both are plain arrays, so
  /// finding a copy's row costs no hash lookup; only ServingWorker, which
  /// picks among a replicated vertex's copies for a remote read, does one.
  /// `route`, which every cluster read loads at a random vertex, sits on
  /// 2 MB pages where the host allows it (HugePageAllocator).
  HugePageVector<RouteWord> route;     ///< size n after IndexRows()
  std::vector<uint32_t> replica_rank;  ///< size n, or empty without replicas

  /// Fills route and replica_rank from the current owner and replica
  /// tables. Requires num_workers <= kMaxWorkers.
  void IndexRows();

  WorkerId OwnerOf(VertexId v) const { return vertex_owner[v]; }

  /// Worker an edge's adjacency record primarily lives on (source
  /// partitioning; replicas hold additional copies).
  WorkerId AssignEdge(VertexId src, VertexId dst) const {
    (void)dst;
    return vertex_owner[src];
  }

  bool HasReplicas() const { return !replicas.empty(); }

  /// Replica workers of v (empty span for unreplicated vertices).
  std::span<const WorkerId> ReplicasOf(VertexId v) const {
    auto it = replicas.find(v);
    if (it == replicas.end()) return {};
    return it->second;
  }

  /// True when worker w holds a copy of v's adjacency (primary or replica).
  bool ServesLocally(VertexId v, WorkerId w) const {
    if (vertex_owner[v] == w) return true;
    for (const WorkerId r : ReplicasOf(v)) {
      if (r == w) return true;
    }
    return false;
  }

  /// Worker that services a read of v issued from `from`: the reader itself
  /// when it holds a copy (local > replicated), otherwise a deterministic
  /// hash-spread choice over all copies so hub traffic does not converge on
  /// the primary owner. Pure in (v, from) — two identical runs route
  /// identically.
  WorkerId ServingWorker(VertexId v, WorkerId from) const;

  /// Average copies per vertex: 1.0 without replication.
  double ReplicationFactor() const {
    if (vertex_owner.empty()) return 1.0;
    size_t extra = 0;
    for (const auto& [v, workers] : replicas) extra += workers.size();
    return 1.0 + static_cast<double>(extra) /
                     static_cast<double>(vertex_owner.size());
  }
};

static_assert(sizeof(Placement::RouteWord) == sizeof(uint64_t));

/// The historical single-owner plan IS the degenerate no-replica placement;
/// every pre-replication caller keeps compiling against this alias.
using PartitionPlan = Placement;

/// \brief Quality metrics of a placement over a given graph.
struct PartitionStats {
  double edge_cut_fraction = 0;  ///< crossing edges / total edges
  double vertex_balance = 0;     ///< max vertices per worker / average
  double edge_balance = 0;       ///< max out-edges per worker / average
  /// Average adjacency copies per vertex (1.0 = no replication).
  double replication_factor = 1.0;
  /// Modeled share of serviced read traffic landing on the busiest worker
  /// (in [1/p, 1]); traffic per vertex is in-degree-proportional, readers
  /// uniform over workers, reads routed by Placement::ServingWorker. The
  /// hot-server number replication is built to push down.
  double hot_server_share = 0;
  std::string ToString() const;
};

/// Computes quality metrics of a placement.
PartitionStats ComputePartitionStats(const AttributedGraph& graph,
                                     const Placement& placement);

/// \brief Plugin interface; implementations must be stateless across calls.
class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual std::string name() const = 0;

  /// Produces a placement over num_workers workers. Base partitioners
  /// return replica-free placements; replica-aware ones (hybrid) fill the
  /// replica table as well.
  virtual Result<Placement> Partition(const AttributedGraph& graph,
                                      uint32_t num_workers) const = 0;
};

/// \brief Random hash edge-cut: owner(v) = hash(v) mod p. The baseline the
/// paper recommends for dense graphs ("vertex and edge cut" family).
class EdgeCutPartitioner : public Partitioner {
 public:
  std::string name() const override { return "edge_cut"; }
  Result<Placement> Partition(const AttributedGraph& graph,
                              uint32_t num_workers) const override;
};

/// \brief Greedy vertex-cut in the PowerGraph style: edges are placed on the
/// least-loaded worker already holding an endpoint; each vertex is owned by
/// the worker holding most of its out-edges.
class VertexCutPartitioner : public Partitioner {
 public:
  std::string name() const override { return "vertex_cut"; }
  Result<Placement> Partition(const AttributedGraph& graph,
                              uint32_t num_workers) const override;

  /// Average number of workers each vertex's edges touch in the last run is
  /// reported via this out-parameter variant.
  Result<Placement> PartitionWithReplication(const AttributedGraph& graph,
                                             uint32_t num_workers,
                                             double* replication) const;
};

/// \brief 2-D partitioning: workers form an r x c grid; vertices are
/// range-assigned to grid blocks. Used when the worker count is fixed.
class Grid2DPartitioner : public Partitioner {
 public:
  std::string name() const override { return "grid2d"; }
  Result<Placement> Partition(const AttributedGraph& graph,
                              uint32_t num_workers) const override;
};

/// \brief Streaming linear-deterministic-greedy (Stanton-Kliot): vertices
/// arrive in id order and go to the worker with the most already-placed
/// neighbors, damped by a capacity penalty.
class StreamingPartitioner : public Partitioner {
 public:
  /// \param slack allowed overload factor over perfect balance (>= 1).
  explicit StreamingPartitioner(double slack = 1.1) : slack_(slack) {}
  std::string name() const override { return "streaming"; }
  Result<Placement> Partition(const AttributedGraph& graph,
                              uint32_t num_workers) const override;

 private:
  double slack_;
};

/// \brief Multilevel partitioner in the METIS style: heavy-edge-matching
/// coarsening, greedy region-growing of the coarsest graph, then uncoarsening
/// with boundary refinement. Recommended for sparse graphs.
class MetisPartitioner : public Partitioner {
 public:
  /// \param coarsen_to stop coarsening when at most this many vertices
  ///        remain per worker.
  explicit MetisPartitioner(size_t coarsen_to = 64) : coarsen_to_(coarsen_to) {}
  std::string name() const override { return "metis"; }
  Result<Placement> Partition(const AttributedGraph& graph,
                              uint32_t num_workers) const override;

 private:
  size_t coarsen_to_;
};

/// \brief Skew-aware hybrid (GLISP-style): hub vertices above a degree
/// threshold are replicated onto k workers (vertex-cut for the head of the
/// power law); everything else is delegated to a tail partitioner. On a
/// hub-free graph the result is exactly the tail partitioner's placement.
class HybridSkewPartitioner : public Partitioner {
 public:
  struct Options {
    /// Explicit out-degree threshold for hub status; 0 = derive from
    /// hub_fraction.
    size_t degree_threshold = 0;
    /// When deriving the threshold: replicate (at most) the top fraction of
    /// vertices by out-degree. Hubs must beat the mean degree regardless,
    /// so uniform-degree graphs stay replica-free.
    double hub_fraction = 0.01;
    /// Copies per hub INCLUDING the primary; 0 = every worker.
    uint32_t replicas = 0;
    /// Name of the partitioner that places the tail (any MakePartitioner
    /// name except "hybrid").
    std::string tail = "edge_cut";
  };

  HybridSkewPartitioner() : HybridSkewPartitioner(Options()) {}
  explicit HybridSkewPartitioner(Options options);

  std::string name() const override { return "hybrid"; }
  Result<Placement> Partition(const AttributedGraph& graph,
                              uint32_t num_workers) const override;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

/// Names MakePartitioner resolves, sorted: "edge_cut", "grid2d", "hybrid",
/// "metis", "streaming", "vertex_cut".
const std::vector<std::string>& KnownPartitionerNames();

/// Factory over the built-in partitioner names (see KnownPartitionerNames).
/// Unknown names fail with a NotFound Status that lists every valid name.
/// Users may register additional plugins by instantiating their own
/// Partitioner subclasses directly.
Result<std::unique_ptr<Partitioner>> MakePartitioner(const std::string& name);

}  // namespace aligraph

#endif  // ALIGRAPH_PARTITION_PARTITIONER_H_
