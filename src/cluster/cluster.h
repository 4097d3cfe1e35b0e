/// \file cluster.h
/// \brief The simulated distributed graph: a set of GraphServers built by a
/// pluggable partitioner, with cache-aware, communication-counted neighbor
/// access.
///
/// Simulation of parallel build time: workers are processed one after the
/// other on this machine, each timed individually; the reported parallel
/// build time is the *maximum* per-worker time plus the (parallelizable)
/// distribution pass divided by the worker count — i.e. the critical path a
/// real cluster would see. The serial comparator (NaiveLockedBuildMillis)
/// mimics a PowerGraph-style globally synchronized loader.

#ifndef ALIGRAPH_CLUSTER_CLUSTER_H_
#define ALIGRAPH_CLUSTER_CLUSTER_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "cluster/comm_model.h"
#include "cluster/epoch.h"
#include "cluster/graph_server.h"
#include "common/huge_pages.h"
#include "common/prefetch.h"
#include "common/status.h"
#include "fault/fault_injector.h"
#include "fault/retry_policy.h"
#include "graph/graph.h"
#include "partition/partitioner.h"

namespace aligraph {

/// \brief Timing breakdown of a distributed build (Figure 7).
struct ClusterBuildReport {
  double partition_ms = 0;       ///< partitioning the vertex set
  double distribute_ms = 0;      ///< routing edges to workers (total work)
  double max_worker_build_ms = 0;  ///< slowest single worker's local build
  double simulated_parallel_ms = 0;  ///< critical-path estimate
  double serial_ms = 0;          ///< sum of all work (1-worker equivalent)
  PartitionStats partition_stats;
  std::string ToString() const;
};

/// \brief One online edge mutation. Inserts append (dst, weight, attr) to
/// src's adjacency under `type`; the weight must be finite and
/// non-negative, as the graph loader requires. Removes delete the first
/// neighbor of src matching (dst, type) and ignore the weight. Vertex
/// attributes are immutable under updates.
struct EdgeUpdate {
  enum class Kind : uint8_t { kInsert, kRemove };
  Kind kind = Kind::kInsert;
  VertexId src = 0;
  VertexId dst = 0;
  EdgeType type = 0;
  float weight = 1.0f;
  AttrId attr = kNoAttr;
};

/// \brief Outcome of one ApplyUpdateBatch call.
struct UpdateReport {
  uint64_t epoch = 0;    ///< the epoch this batch became visible at
  size_t applied = 0;    ///< updates applied
  size_t skipped = 0;    ///< invalid updates / removes with no match
  size_t versions_pruned = 0;  ///< versions freed this batch, each once
};

/// \brief A distributed AttributedGraph over p simulated workers.
class Cluster {
 public:
  /// How many slots ahead of the one it routes a batch read's route pass
  /// prefetches the route word (and, at a nonzero epoch, the version
  /// head) of.
  static constexpr size_t kAhead = 8;

  /// Partitions `graph` with `partitioner` and builds per-worker storage.
  /// The graph must outlive the cluster. Fills `report` when non-null.
  /// InvalidArgument when num_workers is 0 or above
  /// Placement::kMaxWorkers, before anything is partitioned.
  static Result<Cluster> Build(const AttributedGraph& graph,
                               const Partitioner& partitioner,
                               uint32_t num_workers,
                               ClusterBuildReport* report = nullptr);

  uint32_t num_workers() const {
    return static_cast<uint32_t>(servers_.size());
  }
  WorkerId OwnerOf(VertexId v) const { return plan_->OwnerOf(v); }
  GraphServer& server(WorkerId w) { return *servers_[w]; }
  const GraphServer& server(WorkerId w) const { return *servers_[w]; }
  const AttributedGraph& graph() const { return *graph_; }
  const Placement& plan() const { return *plan_; }

  /// Neighbor read issued by worker `from`, resolved as of `epoch`
  /// (kEpochCurrent = the latest published state). Serve order is cheapest
  /// copy first: local when `from` owns v, then `from`'s replica copy, then
  /// `from`'s neighbor cache, then a counted remote fetch from the serving
  /// worker Placement::ServingWorker picks (the owner when v is
  /// unreplicated). All paths return the same data for the same epoch. A
  /// cache holds membership, not bytes: a hit is charged as one and reads
  /// the owner's storage. A vertex updated at or before the read's epoch
  /// (it has a version there) bypasses the cache and leaves it.
  /// Per-vertex neighbor reads never consult the fault injector; reads
  /// that can fail are batched (GetNeighborsBatch).
  ///
  /// Spans stay valid while a pin at `epoch` is held. A kEpochCurrent read
  /// pins internally for the call only, so its spans are only safe to use
  /// until an ApplyUpdateBatch runs; pin to keep them across updates.
  std::span<const Neighbor> GetNeighbors(WorkerId from, VertexId v,
                                         CommStats* stats,
                                         uint64_t epoch = kEpochCurrent) {
    return ReadNeighbors(from, v, kAllEdgeTypes, stats, epoch);
  }

  /// Same, restricted to one edge type. Cache hits at type granularity are
  /// conservative: a cached vertex serves all its types.
  std::span<const Neighbor> GetNeighbors(WorkerId from, VertexId v,
                                         EdgeType type, CommStats* stats,
                                         uint64_t epoch = kEpochCurrent) {
    return ReadNeighbors(from, v, type, stats, epoch);
  }

  /// Batched neighbor read issued by worker `from`: out->spans[i] is the
  /// adjacency of batch[i] (all types when `type` == kAllEdgeTypes). Each
  /// slot is routed like a per-vertex read; the remote residue is
  /// deduplicated and coalesced into ONE request per destination worker,
  /// and the requests are served one after another, in worker order, on
  /// the calling thread. Accounting: owned, replica and cached slots count
  /// per occurrence, exactly as per-vertex reads do; each unique remote
  /// vertex counts one remote_read + one batched_remote_read (duplicates
  /// ride the same response payload for free), and each contacted worker
  /// counts one remote_batch — at most num_workers - 1 per call. Returns
  /// the same bytes as per-vertex GetNeighbors.
  ///
  /// While an enabled fault injector is installed, each coalesced request
  /// (one message, the real failure domain) is judged by it: the first
  /// attempt plus up to RetryPolicy::max_attempts - 1 retries (exponential
  /// backoff with decorrelated jitter, modeled — see RetryPolicy), with
  /// faults, retries, backoff and refused requests charged to `stats`
  /// (faults_injected, retry_attempts, retry_backoff_us, failed_reads) so
  /// CommModel::ModeledMillis reflects them. A refused request marks its
  /// slots out->ok[i] = 0 and leaves their spans empty; every other slot
  /// is exactly the fault-free output. Local, replica and cache-served
  /// slots never fail (faults model the network, not local storage).
  /// Returns OK when every slot resolved, Unavailable when any failed;
  /// with no enabled injector, always OK.
  Status GetNeighborsBatch(WorkerId from, std::span<const VertexId> batch,
                           EdgeType type, BatchResult* out, CommStats* stats,
                           uint64_t epoch = kEpochCurrent);

  /// Per-vertex attribute fetch, routed like a neighbor read (attributes
  /// are never cached): a remote attr costs one individual message, judged
  /// like a batch request while an enabled injector is installed, and
  /// exhausted retries return Unavailable. kNoAttr for vertices without
  /// attrs.
  Result<AttrId> GetVertexAttr(WorkerId from, VertexId v, CommStats* stats);

  /// Batched attribute fetch issued by worker `from`: (*ids)[i] is the
  /// AttrId of batch[i] (kNoAttr for vertices without attributes). Mirrors
  /// GetNeighborsBatch's shape: owned and replica slots resolve locally per
  /// occurrence; the remote residue is deduplicated and coalesced into ONE
  /// message per serving worker. Each unique remote vertex counts one
  /// remote_read + one batched_remote_read, each contacted worker one
  /// remote_batch. Messages are judged as in GetNeighborsBatch: slots of a
  /// refused one get (*ids)[i] = kNoAttr and, when `ok` is non-null,
  /// (*ok)[i] = 0. Returns OK when every slot resolved, Unavailable when
  /// any failed.
  Status GetVertexAttrBatch(WorkerId from, std::span<const VertexId> batch,
                            std::vector<AttrId>* ids, CommStats* stats,
                            std::vector<uint8_t>* ok = nullptr);

  /// Applies a batch of edge inserts/removes concurrently with sampling
  /// reads. Each touched vertex gets one new version, which every copy of
  /// it (primary and replicas) serves; the whole batch becomes visible
  /// atomically at one new epoch, and readers pinned at older epochs keep
  /// seeing the old adjacency. Versions no pinned reader can still reach
  /// are freed in the same step (UpdateReport::versions_pruned), so the
  /// cost of a batch depends on its size, not on the update history.
  /// Out-of-range ids or types, inserts with a NaN, infinite or negative
  /// weight, and removes with no matching (dst, type) are skipped, not
  /// errors. Concurrent ApplyUpdateBatch calls serialize on an internal
  /// mutex.
  Status ApplyUpdateBatch(std::span<const EdgeUpdate> updates,
                          UpdateReport* report = nullptr);

  /// Registers a reader at the current epoch. Pass pin.epoch() as the
  /// `epoch` argument of every read of a multi-read scope (a whole k-hop)
  /// to make the scope see exactly one epoch. The pin also blocks
  /// reclamation of the versions it can reach; spans returned for a pinned
  /// epoch stay valid until the pin is released.
  EpochPin PinEpoch() { return epochs_->Acquire(); }

  /// Latest published epoch (0 = never updated).
  uint64_t current_epoch() const { return epochs_->current(); }

  /// True once any update batch has been applied.
  bool versioned() const { return epochs_->versioned(); }

  /// Approximate resident bytes of the adjacency: every server's base
  /// storage plus the version index (head array and each live version
  /// once). Waits for a running ApplyUpdateBatch.
  size_t MemoryBytes() const;

  /// Per-worker count of reads this worker serviced (local + replica +
  /// cache hits count for the reading worker; remote reads for the serving
  /// worker, once per unique vertex of a batch). Per-vertex and batched
  /// reads count alike. The measured form of
  /// PartitionStats::hot_server_share.
  std::vector<uint64_t> ServedReadsSnapshot() const;
  void ResetServedReads();

  /// Installs deterministic fault injection + the retry policy applied to
  /// the batch reads and GetVertexAttr. An inactive config (all
  /// probabilities zero, no schedule) leaves every path byte-identical to
  /// the uninjected cluster.
  void InstallFaultInjection(FaultConfig config, RetryPolicy policy = {});

  /// Removes fault injection; every read resolves again.
  void ClearFaultInjection();

  bool fault_injection_enabled() const {
    return injector_ != nullptr && injector_->enabled();
  }

  /// Installs the paper's importance-based cache on every worker: vertices
  /// with Imp_k >= taus[k-1] for any k <= depth get their out-neighbors
  /// replicated to all workers. Returns the fraction of vertices cached.
  double InstallImportanceCache(int depth, const std::vector<double>& taus);

  /// Pins the out-neighbors of the top-`fraction` vertices by importance.
  void InstallTopImportanceCache(int k, double fraction);

  /// Pins a uniformly random `fraction` of vertices (Fig. 9 comparator).
  void InstallRandomCache(double fraction, uint64_t seed);

  /// Installs a reactive LRU cache of `capacity_vertices` per worker.
  void InstallLruCache(size_t capacity_vertices);

  /// Removes all caches.
  void ClearCaches();

 private:
  Cluster() = default;

  /// Where one read of v issued by worker `from` is served. `worker` and
  /// `row` locate the storage the read views: `from`'s own row for local
  /// and replica reads, the owner's row for a cache hit, and the serving
  /// worker's row for a remote fetch.
  struct Route {
    enum class Kind : uint8_t { kLocal, kReplica, kCacheHit, kRemote };
    Kind kind;
    WorkerId worker;
    uint32_t row;
  };

  /// The serve-order policy of every read path, cheapest copy first:
  /// `from`'s owned row, its replica row, its neighbor cache (`cache`,
  /// null for attribute reads, which are never cached), else a remote
  /// fetch from Placement::ServingWorker. Decodes v's route word with one
  /// load and reads its replica rank only when the word's flag is set.
  /// Touches the cache like a read (recency, and invalidation when `ver`,
  /// v's version at the read's epoch, is non-null), so it runs on the
  /// reading worker's thread.
  ///
  /// `pinned` is `cache`'s membership array when it is a static policy
  /// (NeighborCache::pinned), else null. For a vertex that is neither
  /// replicated nor updated, read with no cache or a static one, every
  /// route is {kind, owner, owner's row}, and only the kind depends on
  /// ownership and the pin byte: it is picked with selects, so nothing the
  /// caller does next with the row waits on the byte's load, and no
  /// virtual call is made. Replicated and updated vertices and reactive
  /// caches take the branching path.
  Route Classify(WorkerId from, VertexId v, const AdjVersion* ver,
                 NeighborCache* cache, const uint8_t* pinned) const;

  /// What one read call did, filled by the read path and charged once.
  /// Counts are per call, so 32 bits hold them (a batch indexes its slots
  /// with uint32_t); that keeps zeroing a tally to a few vector stores,
  /// which the per-vertex read pays on every call.
  struct ReadTally {
    uint32_t local = 0;           ///< slots served by `from`'s owned rows
    uint32_t replica = 0;         ///< slots served by `from`'s replicas
    uint32_t hit = 0;             ///< slots served as cache hits
    uint32_t remote = 0;          ///< unique vertices fetched remotely
    uint32_t batched_remote = 0;  ///< of those, inside a coalesced request
    uint32_t batches = 0;         ///< coalesced requests answered
    uint32_t faults = 0;          ///< injected faults over all attempts
    uint32_t retries = 0;         ///< attempts beyond each request's first
    uint32_t failed = 0;          ///< requests that exhausted their retries
    uint64_t backoff_us = 0;      ///< modeled backoff + injected latency
    /// (serving worker, vertices it sent), one entry per answered request.
    std::span<const std::pair<WorkerId, uint64_t>> remote_served;

    void Count(Route::Kind kind) {
      switch (kind) {
        case Route::Kind::kLocal: ++local; break;
        case Route::Kind::kReplica: ++replica; break;
        case Route::Kind::kCacheHit: ++hit; break;
        case Route::Kind::kRemote: ++remote; break;
      }
    }
  };

  /// The one charge point of every read path: adds `tally` to `stats`
  /// (when non-null) and to served_reads_ (`from` for local, replica and
  /// hit slots; each remote_served worker for what it sent). The caller's
  /// CommStats is the only record of the read counts.
  void Charge(WorkerId from, const ReadTally& tally, CommStats* stats);

  /// The per-vertex neighbor read behind both GetNeighbors overloads.
  std::span<const Neighbor> ReadNeighbors(WorkerId from, VertexId v,
                                          EdgeType type, CommStats* stats,
                                          uint64_t epoch);

  /// Runs the retry loop for one remote request (one message): judges up
  /// to retry_policy_.max_attempts attempts against the injector, adding
  /// faults, retries and modeled backoff to `tally`. Returns true when
  /// some attempt succeeded within the deadline. Always true when no
  /// injector is active.
  bool RemoteRequestSucceeds(WorkerId from, WorkerId to, uint64_t request_key,
                             ReadTally* tally);

  /// The passes both batch reads run at epoch `e` (0 and a null `cache`
  /// for attributes): route every slot in slot order, `read(i, route, ver)`
  /// every slot, then count the owned, replica and cached slots and
  /// deduplicate the remote ones into one request per serving worker
  /// (keyed by `tag`). The requests are judged in worker order (by the
  /// injector when fault_injection_enabled(), read once per call),
  /// `clear(i)` empties each slot of a refused one, and the whole call is
  /// charged once. `what` names the slots in the Unavailable message. The
  /// route pass prefetches kAhead slots ahead (route word, version head,
  /// and a static cache's pin byte) and calls `prefetch(route)` on each
  /// slot it routes, for the line `read` will load; it also counts each
  /// slot's kind and lists the remote slots, without branching on the
  /// kind, so the count pass walks only the remote ones. The remote
  /// residue folds request keys only when an injector will judge them and
  /// chains first-occurrence slots only for a cache that admits fetches
  /// (one without a pinned() array), since nothing else reads them.
  template <typename ReadSlot, typename PrefetchSlot, typename ClearSlot>
  Status ReadBatch(WorkerId from, std::span<const VertexId> batch, uint64_t e,
                   NeighborCache* cache, uint64_t tag, const char* what,
                   CommStats* stats, ReadSlot read, PrefetchSlot prefetch,
                   ClearSlot clear);

  /// True when the cache must be skipped for a read of v whose version at
  /// the read's epoch is `ver` (non-null: v was updated by then); also
  /// drops the stale entry. Mutates the cache, so it runs on the reading
  /// worker's thread like all other cache traffic.
  static bool BypassCache(NeighborCache* cache, const AdjVersion* ver,
                          VertexId v) {
    if (ver == nullptr) return false;
    cache->Invalidate(v);
    return true;
  }
  /// Admits a remote fetch of v into `cache` (may be null). Updated
  /// vertices are never admitted: a cache only ever stands for pre-update
  /// adjacency, which is what makes the bypass rule exact.
  static void AdmitFetched(NeighborCache* cache, const AdjVersion* ver,
                           VertexId v) {
    if (cache != nullptr && ver == nullptr) cache->OnRemoteFetch(v);
  }
  /// Resolves the kEpochCurrent sentinel once per call, so a whole batch
  /// reads one epoch even unpinned: 0 on a never-updated cluster, else the
  /// epoch of an internal pin stored in `*pin`, which the caller holds for
  /// the call so no version it reads is freed under it.
  uint64_t ResolveEpoch(uint64_t epoch, EpochPin* pin) const {
    if (epoch != kEpochCurrent) return epoch;
    if (!epochs_->versioned()) return 0;
    *pin = epochs_->Acquire();
    return pin->epoch();
  }

  /// The published update state: one version-chain head per vertex (null
  /// until it is updated), shared by every copy of the vertex. Only the
  /// writer, under update_mu_, pushes and frees versions; readers load a
  /// head and walk `older` down to their epoch. The head array sits on
  /// 2 MB pages where the host allows it (HugePageAllocator).
  class VersionIndex {
   public:
    explicit VersionIndex(VertexId n);
    ~VersionIndex();
    VersionIndex(const VersionIndex&) = delete;
    VersionIndex& operator=(const VersionIndex&) = delete;

    /// Newest version of v at or below `epoch`, or null.
    const AdjVersion* At(VertexId v, uint64_t epoch) const {
      const AdjVersion* ver = heads_[v].load(std::memory_order_acquire);
      while (ver != nullptr && ver->epoch > epoch) ver = ver->older;
      return ver;
    }
    /// Prefetch hint for At(v, ...)'s first load.
    void Prefetch(VertexId v) const { ALIGRAPH_PREFETCH(&heads_[v]); }
    /// Makes `ver` v's head, then frees every version behind the newest
    /// one at or below `min_active`. Every live reader is pinned at or
    /// above `min_active`, so its walk stops at that version or before it
    /// and none can reach what is freed. Returns the number freed.
    size_t Push(VertexId v, std::unique_ptr<AdjVersion> ver,
                uint64_t min_active);
    /// Bytes of the head array and of every live version.
    size_t MemoryBytes() const;

   private:
    HugePageVector<std::atomic<AdjVersion*>> heads_;  // value-initialized
  };

  /// v's newest version at or below epoch e: the one version every copy of
  /// v serves at e, or null when v had not been updated by then (always at
  /// epoch 0). A nonzero e comes from this cluster's epoch counter, which
  /// orders the read after the index was allocated.
  const AdjVersion* VersionAt(VertexId v, uint64_t e) const {
    return e == 0 || versions_ == nullptr ? nullptr : versions_->At(v, e);
  }

  const AttributedGraph* graph_ = nullptr;
  /// Heap-held so the servers' pointers to it survive moving the cluster.
  std::unique_ptr<Placement> plan_;
  std::vector<std::unique_ptr<GraphServer>> servers_;
  std::unique_ptr<FaultInjector> injector_;
  RetryPolicy retry_policy_;
  std::unique_ptr<EpochManager> epochs_ = std::make_unique<EpochManager>();
  /// Allocated by the first batch that applies anything.
  std::unique_ptr<VersionIndex> versions_;
  /// Serializes writers and MemoryBytes; readers never take it.
  std::unique_ptr<std::mutex> update_mu_ = std::make_unique<std::mutex>();
  /// One counter per worker (unique_ptr keeps Cluster movable).
  std::unique_ptr<std::atomic<uint64_t>[]> served_reads_;
};

/// Serial comparator for Fig. 7: builds one global adjacency map taking a
/// global mutex per edge, the way a naive synchronized loader would.
/// Returns elapsed milliseconds.
double NaiveLockedBuildMillis(const AttributedGraph& graph);

}  // namespace aligraph

#endif  // ALIGRAPH_CLUSTER_CLUSTER_H_
