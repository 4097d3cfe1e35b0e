#include "cluster/cluster.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/importance.h"

namespace aligraph {

namespace {

// Tags keep the request-key spaces of the read paths disjoint, so e.g. a
// neighbor read and an attribute read of the same vertex are judged as
// independent requests by the fault injector.
constexpr uint64_t kNeighborReadTag = 0x6e62'7264ULL;  // "nbrd"
constexpr uint64_t kAttrReadTag = 0x61'7472ULL;        // "atr"
constexpr uint64_t kBatchReadTag = 0x62'6368ULL;       // "bch"
constexpr uint64_t kJitterStreamTag = 0x6a'7472ULL;    // "jtr"

uint64_t PerVertexRequestKey(VertexId v, EdgeType type) {
  return Mix64((static_cast<uint64_t>(v) << 16) ^ type ^
               (kNeighborReadTag << 40));
}

uint64_t AttrRequestKey(VertexId v) {
  return Mix64(static_cast<uint64_t>(v) ^ (kAttrReadTag << 40));
}

constexpr uint64_t kAttrBatchTag = 0x61'6263ULL;  // "abc" (attr batch)

/// The remote residue of one batched read: its unique vertices in
/// first-occurrence order, each with the worker that serves it, and every
/// remote slot with the index of its unique vertex. Deduplication uses a
/// flat linear-probing table sized for the batch, so no entry allocates.
class RemoteResidue {
 public:
  explicit RemoteResidue(size_t batch_size) : batch_size_(batch_size) {}

  /// Records that batch slot `slot` asks for v, served by `target`.
  void Add(uint32_t slot, VertexId v, WorkerId target) {
    if (table_.empty()) {
      table_.assign(std::bit_ceil(2 * batch_size_), kEmpty);
    }
    const size_t mask = table_.size() - 1;
    for (size_t h = Mix64(v) & mask;; h = (h + 1) & mask) {
      if (table_[h] == kEmpty) {
        table_[h] = static_cast<uint32_t>(vertices_.size());
        vertices_.push_back(v);
        targets_.push_back(target);
        failed_.push_back(0);
      } else if (vertices_[table_[h]] != v) {
        continue;
      }
      slots_.emplace_back(slot, table_[h]);
      return;
    }
  }

  size_t size() const { return vertices_.size(); }
  VertexId vertex(uint32_t u) const { return vertices_[u]; }
  bool failed(uint32_t u) const { return failed_[u] != 0; }
  /// Unique vertices whose request was refused.
  size_t num_failed() const { return num_failed_; }
  /// (batch slot, unique index) of every remote slot, in batch order.
  const std::vector<std::pair<uint32_t, uint32_t>>& slots() const {
    return slots_;
  }

  /// Walks the coalesced requests — one per destination worker, in worker
  /// order, each carrying its unique vertices in first-occurrence order —
  /// on the calling thread. `admit(w, request)` is the request's fault
  /// decision; a refused request marks its vertices failed.
  /// `serve(w, request)` answers an admitted one. Returns the number of
  /// workers contacted.
  template <typename Admit, typename Serve>
  uint64_t ForEachRequest(size_t num_workers, Admit admit, Serve serve) {
    uint64_t contacted = 0;
    std::vector<uint32_t> request;
    for (WorkerId w = 0; w < num_workers; ++w) {
      request.clear();
      for (uint32_t u = 0; u < targets_.size(); ++u) {
        if (targets_[u] == w) request.push_back(u);
      }
      if (request.empty()) continue;
      if (!admit(w, request)) {
        for (const uint32_t u : request) failed_[u] = 1;
        num_failed_ += request.size();
        continue;
      }
      ++contacted;
      serve(w, request);
    }
    return contacted;
  }

  /// Content-derived key of one coalesced request: a fold over the unique
  /// vertices it carries. Pure in the request's payload, so two identical
  /// runs judge identical requests identically regardless of call order.
  uint64_t RequestKey(uint64_t tag,
                      const std::vector<uint32_t>& request) const {
    uint64_t key = tag << 40;
    for (const uint32_t u : request) key = Mix64(key ^ vertices_[u]);
    return key;
  }

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};
  size_t batch_size_;
  std::vector<uint32_t> table_;  // unique index per probe cell, or kEmpty
  std::vector<VertexId> vertices_;
  std::vector<WorkerId> targets_;
  std::vector<uint8_t> failed_;
  size_t num_failed_ = 0;
  std::vector<std::pair<uint32_t, uint32_t>> slots_;
};

}  // namespace

std::string ClusterBuildReport::ToString() const {
  std::ostringstream os;
  os << "partition=" << partition_ms << "ms distribute=" << distribute_ms
     << "ms max_worker=" << max_worker_build_ms
     << "ms parallel~=" << simulated_parallel_ms << "ms serial=" << serial_ms
     << "ms " << partition_stats.ToString();
  return os.str();
}

Result<Cluster> Cluster::Build(const AttributedGraph& graph,
                               const Partitioner& partitioner,
                               uint32_t num_workers,
                               ClusterBuildReport* report) {
  if (num_workers == 0) return Status::InvalidArgument("num_workers == 0");
  Cluster cluster;
  cluster.graph_ = &graph;

  Timer phase;
  ALIGRAPH_ASSIGN_OR_RETURN(Placement plan,
                            partitioner.Partition(graph, num_workers));
  cluster.plan_ = std::make_unique<Placement>(std::move(plan));
  const double partition_ms = phase.ElapsedMillis();

  // Distribution pass: give every vertex its row on its owner and every
  // replicated vertex its rank. This is per-source parallelizable; the
  // per-worker share is distribute/p.
  phase.Reset();
  cluster.plan_->IndexRows();
  const double distribute_ms = phase.ElapsedMillis();

  cluster.served_reads_.reset(new std::atomic<uint64_t>[num_workers]);
  for (uint32_t w = 0; w < num_workers; ++w) {
    cluster.served_reads_[w].store(0, std::memory_order_relaxed);
  }

  // Local build per worker — count then fill its CSR straight from the
  // graph — timed individually; the slowest worker defines the simulated
  // parallel critical path.
  double max_worker_ms = 0;
  double sum_worker_ms = 0;
  cluster.servers_.reserve(num_workers);
  for (uint32_t w = 0; w < num_workers; ++w) {
    Timer worker_timer;
    cluster.servers_.push_back(
        std::make_unique<GraphServer>(w, graph, *cluster.plan_));
    const double ms = worker_timer.ElapsedMillis();
    max_worker_ms = std::max(max_worker_ms, ms);
    sum_worker_ms += ms;
  }

  if (report != nullptr) {
    report->partition_ms = partition_ms;
    report->distribute_ms = distribute_ms;
    report->max_worker_build_ms = max_worker_ms;
    report->simulated_parallel_ms =
        partition_ms + distribute_ms / num_workers + max_worker_ms;
    report->serial_ms = partition_ms + distribute_ms + sum_worker_ms;
    report->partition_stats = ComputePartitionStats(graph, *cluster.plan_);
  }

  if (obs::MetricsRegistry* reg = obs::Default()) {
    cluster.obs_.local_reads = reg->GetCounter("comm.local_reads");
    cluster.obs_.replica_reads = reg->GetCounter("comm.replica_reads");
    cluster.obs_.cache_hits = reg->GetCounter("comm.cache_hits");
    cluster.obs_.remote_reads = reg->GetCounter("comm.remote_reads");
    cluster.obs_.remote_batches = reg->GetCounter("comm.remote_batches");
    cluster.obs_.batched_remote_reads =
        reg->GetCounter("comm.batched_remote_reads");
    cluster.obs_.retry_attempts = reg->GetCounter("retry.attempts");
    cluster.obs_.retry_backoff_us = reg->GetCounter("retry.backoff_us");
    cluster.obs_.failed_reads = reg->GetCounter("comm.failed_reads");
    reg->GetGauge("cluster.workers")->Set(num_workers);
    reg->GetGauge("cluster.vertices")
        ->Set(static_cast<double>(graph.num_vertices()));
    reg->GetGauge("cluster.edges")
        ->Set(static_cast<double>(graph.num_edges()));
  }
  return cluster;
}

std::span<const Neighbor> Cluster::GetNeighbors(WorkerId from, VertexId v,
                                                CommStats* stats,
                                                uint64_t epoch) {
  const uint64_t e = ResolveEpoch(epoch);
  const WorkerId owner = plan_->OwnerOf(v);
  if (owner == from) {
    if (stats != nullptr) stats->local_reads.fetch_add(1);
    if (obs_.local_reads != nullptr) obs_.local_reads->Add(1);
    CountServed(from);
    return servers_[owner]->NeighborsAt(v, e);
  }
  if (plan_->HasReplicas() && servers_[from]->HasReplica(v)) {
    if (stats != nullptr) stats->replica_reads.fetch_add(1);
    if (obs_.replica_reads != nullptr) obs_.replica_reads->Add(1);
    CountServed(from);
    return servers_[from]->NeighborsAt(v, e);
  }
  NeighborCache* cache = servers_[from]->neighbor_cache();
  const bool dirty = BypassCache(cache, v, e);
  if (cache != nullptr && !dirty) {
    auto hit = cache->Lookup(v);
    if (hit.has_value()) {
      if (stats != nullptr) stats->cache_hits.fetch_add(1);
      if (obs_.cache_hits != nullptr) obs_.cache_hits->Add(1);
      CountServed(from);
      return *hit;
    }
  }
  const WorkerId target = plan_->ServingWorker(v, from);
  if (stats != nullptr) stats->remote_reads.fetch_add(1);
  if (obs_.remote_reads != nullptr) obs_.remote_reads->Add(1);
  CountServed(target);
  const auto nbs = servers_[target]->NeighborsAt(v, e);
  if (cache != nullptr && !dirty) cache->OnRemoteFetch(v, nbs);
  return nbs;
}

std::span<const Neighbor> Cluster::GetNeighbors(WorkerId from, VertexId v,
                                                EdgeType type,
                                                CommStats* stats,
                                                uint64_t epoch) {
  const uint64_t e = ResolveEpoch(epoch);
  const WorkerId owner = plan_->OwnerOf(v);
  if (owner == from) {
    if (stats != nullptr) stats->local_reads.fetch_add(1);
    if (obs_.local_reads != nullptr) obs_.local_reads->Add(1);
    CountServed(from);
    return servers_[owner]->NeighborsAt(v, type, e);
  }
  if (plan_->HasReplicas() && servers_[from]->HasReplica(v)) {
    if (stats != nullptr) stats->replica_reads.fetch_add(1);
    if (obs_.replica_reads != nullptr) obs_.replica_reads->Add(1);
    CountServed(from);
    return servers_[from]->NeighborsAt(v, type, e);
  }
  NeighborCache* cache = servers_[from]->neighbor_cache();
  const bool dirty = BypassCache(cache, v, e);
  if (cache != nullptr && !dirty && cache->Lookup(v).has_value()) {
    // The pinned copy holds all types; serve the typed view from the owner's
    // layout (same bytes) while charging a cache hit.
    if (stats != nullptr) stats->cache_hits.fetch_add(1);
    if (obs_.cache_hits != nullptr) obs_.cache_hits->Add(1);
    CountServed(from);
    return servers_[owner]->NeighborsAt(v, type, e);
  }
  const WorkerId target = plan_->ServingWorker(v, from);
  if (stats != nullptr) stats->remote_reads.fetch_add(1);
  if (obs_.remote_reads != nullptr) obs_.remote_reads->Add(1);
  CountServed(target);
  const auto all = servers_[target]->NeighborsAt(v, e);
  if (cache != nullptr && !dirty) cache->OnRemoteFetch(v, all);
  return servers_[target]->NeighborsAt(v, type, e);
}

bool Cluster::RemoteRequestSucceeds(WorkerId from, WorkerId to,
                                    uint64_t request_key, CommStats* stats) {
  if (injector_ == nullptr || !injector_->enabled()) return true;
  const RetryPolicy& policy = retry_policy_;
  double charged_us = 0;  // backoff + injected latency, billed to the model
  double elapsed_us = 0;  // modeled request clock, checked vs the deadline
  uint64_t retries = 0;
  bool success = false;

  FaultDecision d = injector_->Decide(from, to, request_key, 1);
  if (stats != nullptr && d.kind != FaultKind::kNone) {
    stats->faults_injected.fetch_add(1);
  }
  charged_us += d.latency_us;
  elapsed_us += d.latency_us;
  if (d.Succeeds() && elapsed_us <= policy.deadline_us) {
    success = true;
  } else {
    // Recovery path: retry with decorrelated-jitter backoff. The jitter
    // stream is seeded per request from (injector seed, request key), so
    // the whole backoff schedule replays exactly for a fixed seed.
    obs::ScopedSpan retry_span("cluster/retry");
    Rng jitter(
        Mix64(injector_->config().seed ^ request_key ^ (kJitterStreamTag << 40)));
    double prev_backoff = policy.base_backoff_us;
    for (uint32_t attempt = 2; attempt <= policy.max_attempts; ++attempt) {
      const double backoff = policy.NextBackoffUs(prev_backoff, jitter);
      prev_backoff = backoff;
      charged_us += backoff;
      elapsed_us += backoff;
      // Past the deadline there is no point sending another message.
      if (elapsed_us > policy.deadline_us) break;
      ++retries;
      // One span per resent message, so a degraded draw's timeline shows
      // each attempt nested under cluster/retry.
      obs::ScopedSpan attempt_span("cluster/retry_attempt");
      d = injector_->Decide(from, to, request_key, attempt);
      if (stats != nullptr && d.kind != FaultKind::kNone) {
        stats->faults_injected.fetch_add(1);
      }
      charged_us += d.latency_us;
      elapsed_us += d.latency_us;
      if (d.Succeeds() && elapsed_us <= policy.deadline_us) {
        success = true;
        break;
      }
    }
  }

  const uint64_t charged = static_cast<uint64_t>(charged_us + 0.5);
  if (stats != nullptr) {
    if (retries > 0) stats->retry_attempts.fetch_add(retries);
    if (charged > 0) stats->retry_backoff_us.fetch_add(charged);
    if (!success) stats->failed_reads.fetch_add(1);
  }
  if (obs_.retry_attempts != nullptr) {
    if (retries > 0) obs_.retry_attempts->Add(retries);
    if (charged > 0) obs_.retry_backoff_us->Add(charged);
    if (!success) obs_.failed_reads->Add(1);
  }
  return success;
}

Result<std::span<const Neighbor>> Cluster::TryGetNeighbors(WorkerId from,
                                                           VertexId v,
                                                           CommStats* stats,
                                                           uint64_t epoch) {
  const uint64_t e = ResolveEpoch(epoch);
  const WorkerId owner = plan_->OwnerOf(v);
  if (owner == from) {
    if (stats != nullptr) stats->local_reads.fetch_add(1);
    if (obs_.local_reads != nullptr) obs_.local_reads->Add(1);
    CountServed(from);
    return servers_[owner]->NeighborsAt(v, e);
  }
  if (plan_->HasReplicas() && servers_[from]->HasReplica(v)) {
    if (stats != nullptr) stats->replica_reads.fetch_add(1);
    if (obs_.replica_reads != nullptr) obs_.replica_reads->Add(1);
    CountServed(from);
    return servers_[from]->NeighborsAt(v, e);
  }
  NeighborCache* cache = servers_[from]->neighbor_cache();
  const bool dirty = BypassCache(cache, v, e);
  if (cache != nullptr && !dirty) {
    auto hit = cache->Lookup(v);
    if (hit.has_value()) {
      if (stats != nullptr) stats->cache_hits.fetch_add(1);
      if (obs_.cache_hits != nullptr) obs_.cache_hits->Add(1);
      CountServed(from);
      return *hit;
    }
  }
  const WorkerId target = plan_->ServingWorker(v, from);
  if (!RemoteRequestSucceeds(from, target,
                             PerVertexRequestKey(v, kAllEdgeTypes), stats)) {
    return Status::Unavailable("neighbors of vertex " + std::to_string(v) +
                               ": worker " + std::to_string(target) +
                               " did not answer within the retry budget");
  }
  if (stats != nullptr) stats->remote_reads.fetch_add(1);
  if (obs_.remote_reads != nullptr) obs_.remote_reads->Add(1);
  CountServed(target);
  const auto nbs = servers_[target]->NeighborsAt(v, e);
  if (cache != nullptr && !dirty) cache->OnRemoteFetch(v, nbs);
  return nbs;
}

Result<std::span<const Neighbor>> Cluster::TryGetNeighbors(WorkerId from,
                                                           VertexId v,
                                                           EdgeType type,
                                                           CommStats* stats,
                                                           uint64_t epoch) {
  const uint64_t e = ResolveEpoch(epoch);
  const WorkerId owner = plan_->OwnerOf(v);
  if (owner == from) {
    if (stats != nullptr) stats->local_reads.fetch_add(1);
    if (obs_.local_reads != nullptr) obs_.local_reads->Add(1);
    CountServed(from);
    return servers_[owner]->NeighborsAt(v, type, e);
  }
  if (plan_->HasReplicas() && servers_[from]->HasReplica(v)) {
    if (stats != nullptr) stats->replica_reads.fetch_add(1);
    if (obs_.replica_reads != nullptr) obs_.replica_reads->Add(1);
    CountServed(from);
    return servers_[from]->NeighborsAt(v, type, e);
  }
  NeighborCache* cache = servers_[from]->neighbor_cache();
  const bool dirty = BypassCache(cache, v, e);
  if (cache != nullptr && !dirty && cache->Lookup(v).has_value()) {
    if (stats != nullptr) stats->cache_hits.fetch_add(1);
    if (obs_.cache_hits != nullptr) obs_.cache_hits->Add(1);
    CountServed(from);
    return servers_[owner]->NeighborsAt(v, type, e);
  }
  const WorkerId target = plan_->ServingWorker(v, from);
  if (!RemoteRequestSucceeds(from, target, PerVertexRequestKey(v, type),
                             stats)) {
    return Status::Unavailable("typed neighbors of vertex " +
                               std::to_string(v) + ": worker " +
                               std::to_string(target) +
                               " did not answer within the retry budget");
  }
  if (stats != nullptr) stats->remote_reads.fetch_add(1);
  if (obs_.remote_reads != nullptr) obs_.remote_reads->Add(1);
  CountServed(target);
  const auto all = servers_[target]->NeighborsAt(v, e);
  if (cache != nullptr && !dirty) cache->OnRemoteFetch(v, all);
  return servers_[target]->NeighborsAt(v, type, e);
}

Result<AttrId> Cluster::TryGetVertexAttr(WorkerId from, VertexId v,
                                         CommStats* stats) {
  const WorkerId owner = plan_->OwnerOf(v);
  if (owner == from) {
    if (stats != nullptr) stats->local_reads.fetch_add(1);
    if (obs_.local_reads != nullptr) obs_.local_reads->Add(1);
    CountServed(from);
    return servers_[owner]->VertexAttr(v);
  }
  // Attributes are immutable, so a replica copy is always current.
  if (plan_->HasReplicas() && servers_[from]->HasReplica(v)) {
    if (stats != nullptr) stats->replica_reads.fetch_add(1);
    if (obs_.replica_reads != nullptr) obs_.replica_reads->Add(1);
    CountServed(from);
    return servers_[from]->VertexAttr(v);
  }
  if (!RemoteRequestSucceeds(from, owner, AttrRequestKey(v), stats)) {
    return Status::Unavailable("attribute of vertex " + std::to_string(v) +
                               ": worker " + std::to_string(owner) +
                               " did not answer within the retry budget");
  }
  if (stats != nullptr) stats->remote_reads.fetch_add(1);
  if (obs_.remote_reads != nullptr) obs_.remote_reads->Add(1);
  CountServed(owner);
  return servers_[owner]->VertexAttr(v);
}

void Cluster::GetVertexAttrBatch(WorkerId from, std::span<const VertexId> batch,
                                 std::vector<AttrId>* ids, CommStats* stats) {
  // Infallible path: never consults the injector (see GetNeighborsBatch).
  (void)GetVertexAttrBatchImpl(from, batch, ids, nullptr, stats,
                               /*fallible=*/false);
}

Status Cluster::TryGetVertexAttrBatch(WorkerId from,
                                      std::span<const VertexId> batch,
                                      std::vector<AttrId>* ids,
                                      std::vector<uint8_t>* ok,
                                      CommStats* stats) {
  return GetVertexAttrBatchImpl(from, batch, ids, ok, stats,
                                fault_injection_enabled());
}

Status Cluster::GetVertexAttrBatchImpl(WorkerId from,
                                       std::span<const VertexId> batch,
                                       std::vector<AttrId>* ids,
                                       std::vector<uint8_t>* ok,
                                       CommStats* stats, bool fallible) {
  obs::ScopedSpan span("cluster/attr_batch_read");
  ids->assign(batch.size(), kNoAttr);
  if (ok != nullptr) ok->assign(batch.size(), 1);

  // Owned and replica-held slots resolve from `from`'s own table
  // (attributes are immutable, so a replica copy is always current); the
  // remote residue is deduplicated and grouped by owner (attributes are
  // never neighbor-cached).
  const GraphServer& local = *servers_[from];
  uint64_t local_count = 0;
  uint64_t replica_count = 0;
  RemoteResidue remote(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const VertexId v = batch[i];
    const WorkerId owner = plan_->OwnerOf(v);
    const uint32_t row = local.RowOf(v);
    if (row != GraphServer::kNoRow) {
      (*ids)[i] = local.RowAttr(row);
      ++(owner == from ? local_count : replica_count);
      continue;
    }
    remote.Add(static_cast<uint32_t>(i), v, owner);
  }

  // One message (and one fault decision) per destination worker.
  std::vector<AttrId> attrs(remote.size(), kNoAttr);
  const uint64_t contacted_workers = remote.ForEachRequest(
      servers_.size(),
      [&](WorkerId w, const std::vector<uint32_t>& request) {
        return !fallible ||
               RemoteRequestSucceeds(
                   from, w, remote.RequestKey(kAttrBatchTag, request), stats);
      },
      [&](WorkerId w, const std::vector<uint32_t>& request) {
        CountServed(w, request.size());
        const GraphServer& srv = *servers_[w];
        for (const uint32_t u : request) {
          attrs[u] = srv.RowAttr(plan_->local_row[remote.vertex(u)]);
        }
      });
  size_t failed_slots = 0;
  for (const auto& [slot, u] : remote.slots()) {
    (*ids)[slot] = attrs[u];
    if (remote.failed(u)) {
      if (ok != nullptr) (*ok)[slot] = 0;
      ++failed_slots;
    }
  }

  const uint64_t unique_remote = remote.size() - remote.num_failed();
  CountServed(from, local_count + replica_count);
  if (stats != nullptr) {
    stats->local_reads.fetch_add(local_count);
    stats->replica_reads.fetch_add(replica_count);
    stats->remote_reads.fetch_add(unique_remote);
    stats->batched_remote_reads.fetch_add(unique_remote);
    stats->remote_batches.fetch_add(contacted_workers);
  }
  if (obs_.local_reads != nullptr) {
    obs_.local_reads->Add(local_count);
    obs_.replica_reads->Add(replica_count);
    obs_.remote_reads->Add(unique_remote);
    obs_.batched_remote_reads->Add(unique_remote);
    obs_.remote_batches->Add(contacted_workers);
  }
  if (failed_slots == 0) return Status::OK();
  return Status::Unavailable(std::to_string(failed_slots) + " of " +
                             std::to_string(batch.size()) +
                             " attr slots exhausted their retry budget");
}

void Cluster::InstallFaultInjection(FaultConfig config, RetryPolicy policy) {
  retry_policy_ = policy;
  if (retry_policy_.max_attempts == 0) retry_policy_.max_attempts = 1;
  injector_ = std::make_unique<FaultInjector>(std::move(config));
}

void Cluster::ClearFaultInjection() { injector_.reset(); }

std::shared_ptr<const Cluster::DirtyMap> Cluster::DirtyFor(
    const NeighborCache* cache) const {
  if (cache == nullptr || !epochs_->versioned()) return nullptr;
  std::lock_guard<std::mutex> lock(*dirty_mu_);
  return dirty_;
}

bool Cluster::BypassCache(NeighborCache* cache, const DirtyMap* dirty,
                          VertexId v, uint64_t e) {
  if (cache == nullptr || dirty == nullptr) return false;
  auto it = dirty->find(v);
  if (it == dirty->end() || it->second > e) return false;
  cache->Invalidate(v);
  return true;
}

std::vector<uint64_t> Cluster::ServedReadsSnapshot() const {
  std::vector<uint64_t> out(num_workers());
  for (uint32_t w = 0; w < out.size(); ++w) {
    out[w] = served_reads_[w].load(std::memory_order_relaxed);
  }
  return out;
}

void Cluster::ResetServedReads() {
  for (uint32_t w = 0; w < num_workers(); ++w) {
    served_reads_[w].store(0, std::memory_order_relaxed);
  }
}

Status Cluster::ApplyUpdateBatch(std::span<const EdgeUpdate> updates,
                                 UpdateReport* report) {
  std::lock_guard<std::mutex> lock(*update_mu_);
  obs::ScopedSpan span("cluster/apply_updates");
  const VertexId n = graph_->num_vertices();
  const size_t num_types = graph_->num_edge_types();
  const uint64_t new_epoch = epochs_->current() + 1;

  // Group the batch by source vertex, preserving per-source order.
  std::unordered_map<VertexId, std::vector<const EdgeUpdate*>> by_src;
  std::vector<VertexId> sources;
  size_t applied = 0;
  size_t skipped = 0;
  for (const EdgeUpdate& u : updates) {
    if (u.src >= n || u.type >= num_types ||
        (u.kind == EdgeUpdate::Kind::kInsert && u.dst >= n)) {
      ++skipped;
      continue;
    }
    auto [it, inserted] = by_src.try_emplace(u.src);
    if (inserted) sources.push_back(u.src);
    it->second.push_back(&u);
  }

  // Rebuild each touched vertex's full typed adjacency from the latest
  // published state and stamp ONE immutable version at the new epoch. The
  // same version object is shared by the primary and every replica, which
  // is what makes all copies flip together when the epoch advances.
  std::vector<std::pair<VertexId, AdjVersionPtr>> versions;
  versions.reserve(sources.size());
  for (const VertexId v : sources) {
    const GraphServer& osrv = *servers_[plan_->OwnerOf(v)];
    const auto delta = osrv.delta_snapshot();
    const uint32_t row = osrv.RowOf(v);
    std::vector<std::vector<Neighbor>> typed(num_types);
    for (size_t t = 0; t < num_types; ++t) {
      const auto s = osrv.Read(v, row, static_cast<EdgeType>(t),
                               kEpochCurrent, delta.get());
      typed[t].assign(s.begin(), s.end());
    }
    bool changed = false;
    for (const EdgeUpdate* u : by_src[v]) {
      std::vector<Neighbor>& list = typed[u->type];
      if (u->kind == EdgeUpdate::Kind::kInsert) {
        list.push_back(Neighbor{u->dst, u->weight, u->attr});
        ++applied;
        changed = true;
      } else {
        auto match = std::find_if(
            list.begin(), list.end(),
            [u](const Neighbor& nb) { return nb.dst == u->dst; });
        if (match == list.end()) {
          ++skipped;
        } else {
          list.erase(match);
          ++applied;
          changed = true;
        }
      }
    }
    if (!changed) continue;
    auto ver = std::make_shared<AdjVersion>();
    ver->epoch = new_epoch;
    ver->type_offsets.resize(num_types + 1, 0);
    size_t total = 0;
    for (size_t t = 0; t < num_types; ++t) {
      ver->type_offsets[t] = static_cast<uint32_t>(total);
      total += typed[t].size();
    }
    ver->type_offsets[num_types] = static_cast<uint32_t>(total);
    ver->neighbors.reserve(total);
    for (size_t t = 0; t < num_types; ++t) {
      ver->neighbors.insert(ver->neighbors.end(), typed[t].begin(),
                            typed[t].end());
    }
    versions.emplace_back(v, std::move(ver));
  }

  if (versions.empty()) {
    // Nothing changed: do not burn an epoch (a never-updated cluster stays
    // on the epoch-0 fast path).
    if (report != nullptr) {
      report->epoch = epochs_->current();
      report->applied = applied;
      report->skipped = skipped;
      report->versions_pruned = 0;
    }
    return Status::OK();
  }

  // Copy-on-write republish of every touched server's delta table,
  // reclaiming versions no pinned reader can still reach: the newest
  // version at or below the min-active epoch shadows everything older.
  const uint64_t min_active = epochs_->MinActiveEpoch();
  size_t pruned = 0;
  std::unordered_map<WorkerId, std::vector<std::pair<VertexId, AdjVersionPtr>>>
      per_server;
  for (const auto& [v, ver] : versions) {
    per_server[plan_->OwnerOf(v)].emplace_back(v, ver);
    for (const WorkerId r : plan_->ReplicasOf(v)) {
      per_server[r].emplace_back(v, ver);
    }
  }
  for (auto& [w, items] : per_server) {
    const auto old_table = servers_[w]->delta_snapshot();
    auto table = old_table != nullptr ? std::make_shared<DeltaTable>(*old_table)
                                      : std::make_shared<DeltaTable>();
    for (const auto& [v, ver] : items) {
      std::vector<AdjVersionPtr>& chain = (*table)[v];
      chain.push_back(ver);
      size_t newest_le = chain.size();
      for (size_t i = 0; i < chain.size(); ++i) {
        if (chain[i]->epoch <= min_active) newest_le = i;
      }
      if (newest_le != chain.size() && newest_le > 0) {
        pruned += newest_le;
        chain.erase(chain.begin(),
                    chain.begin() + static_cast<ptrdiff_t>(newest_le));
      }
    }
    servers_[w]->PublishDelta(std::move(table));
  }

  // Publish the dirty map (vertex -> first-update epoch, kept at the
  // earliest), THEN advance: a reader that sees the new epoch is guaranteed
  // to also see every table and the dirty entries of this batch. Only
  // writers (serialized by update_mu_) replace dirty_, so the copy is built
  // before taking dirty_mu_ and the retired map is freed after releasing
  // it: readers wait for a pointer swap, never for a whole-map copy.
  std::shared_ptr<const DirtyMap> dirty;
  {
    auto next = dirty_ != nullptr ? std::make_shared<DirtyMap>(*dirty_)
                                  : std::make_shared<DirtyMap>();
    for (const auto& [v, ver] : versions) next->try_emplace(v, new_epoch);
    dirty = std::move(next);
  }
  {
    std::lock_guard<std::mutex> dirty_lock(*dirty_mu_);
    dirty_.swap(dirty);
  }
  dirty.reset();
  const uint64_t published = epochs_->Advance();

  if (obs::MetricsRegistry* reg = obs::Default()) {
    reg->GetCounter("update.batches")->Add(1);
    reg->GetCounter("update.edges_applied")->Add(applied);
    reg->GetCounter("update.skipped")->Add(skipped);
    reg->GetCounter("update.versions_pruned")->Add(pruned);
    reg->GetGauge("update.epoch")->Set(static_cast<double>(published));
  }
  if (report != nullptr) {
    report->epoch = published;
    report->applied = applied;
    report->skipped = skipped;
    report->versions_pruned = pruned;
  }
  return Status::OK();
}

void Cluster::GetNeighborsBatch(WorkerId from,
                                std::span<const VertexId> batch,
                                EdgeType type, BatchResult* out,
                                CommStats* stats, uint64_t epoch) {
  // Infallible path: never consults the injector, so installed-but-unused
  // fault configs cannot perturb it. Always OK, hence the discarded Status.
  (void)GetNeighborsBatchImpl(from, batch, type, out, stats,
                              /*fallible=*/false, epoch);
}

Status Cluster::TryGetNeighborsBatch(WorkerId from,
                                     std::span<const VertexId> batch,
                                     EdgeType type, BatchResult* out,
                                     CommStats* stats, uint64_t epoch) {
  return GetNeighborsBatchImpl(from, batch, type, out, stats,
                               fault_injection_enabled(), epoch);
}

Status Cluster::GetNeighborsBatchImpl(WorkerId from,
                                      std::span<const VertexId> batch,
                                      EdgeType type, BatchResult* out,
                                      CommStats* stats, bool fallible,
                                      uint64_t epoch) {
  obs::ScopedSpan span("cluster/batch_read");
  const bool all_types = type == kAllEdgeTypes;
  // Resolved once, so the whole batch reads one epoch even unpinned. The
  // published update state is snapshotted once too, after the epoch: every
  // server's delta table and the dirty map serve all slots of the call.
  const uint64_t e = ResolveEpoch(epoch);
  std::vector<std::shared_ptr<const DeltaTable>> deltas;
  if (epochs_->versioned()) {
    deltas.reserve(servers_.size());
    for (const auto& srv : servers_) deltas.push_back(srv->delta_snapshot());
  }
  auto delta_of = [&deltas](WorkerId w) {
    return deltas.empty() ? nullptr : deltas[w].get();
  };
  const GraphServer& local = *servers_[from];
  NeighborCache* cache = local.neighbor_cache();
  const auto dirty = DirtyFor(cache);
  out->Reset(batch.size());

  // Partition the batch: owned, replica-held and cache-hit slots resolve
  // immediately; the remote residue is deduplicated and grouped by its
  // serving worker (the owner when unreplicated, a hash-spread copy holder
  // otherwise).
  uint64_t local_count = 0;
  uint64_t hit_count = 0;
  RemoteResidue remote(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const VertexId v = batch[i];
    const WorkerId owner = plan_->OwnerOf(v);
    // Owned and replica-held slots read `from`'s own table. Batched
    // replica reads are not charged to CommStats (the historical
    // accounting, kept so modeled costs stay put).
    const uint32_t row = local.RowOf(v);
    if (row != GraphServer::kNoRow) {
      out->spans[i] = local.Read(v, row, type, e, delta_of(from));
      if (owner == from) ++local_count;
      continue;
    }
    if (cache != nullptr && !BypassCache(cache, dirty.get(), v, e) &&
        cache->Lookup(v).has_value()) {
      // Charged as a cache hit, but the span views the owner's immutable
      // storage (same bytes: the cache only ever holds pre-update data and
      // v is not dirty at e). A reactive cache may evict the entry while
      // this batch admits later fetches, which would leave a span into the
      // cache dangling.
      out->spans[i] =
          servers_[owner]->Read(v, plan_->local_row[v], type, e,
                                delta_of(owner));
      ++hit_count;
      continue;
    }
    remote.Add(static_cast<uint32_t>(i), v,
               plan_->ReplicaRank(v) == Placement::kNoRow
                   ? owner
                   : plan_->ServingWorker(v, from));
  }

  // Coalesce: ONE request per destination worker carrying all its unique
  // vertices, served in worker order on this thread. One fault decision per
  // coalesced message — the message is the failure domain, so all slots of
  // a failed per-worker request fail together.
  std::vector<std::span<const Neighbor>> views(remote.size());
  const uint64_t contacted_workers = remote.ForEachRequest(
      servers_.size(),
      [&](WorkerId w, const std::vector<uint32_t>& request) {
        return !fallible ||
               RemoteRequestSucceeds(
                   from, w, remote.RequestKey(kBatchReadTag, request), stats);
      },
      [&](WorkerId w, const std::vector<uint32_t>& request) {
        CountServed(w, request.size());
        const GraphServer& srv = *servers_[w];
        {
          obs::ScopedSpan serve_span("cluster/remote_serve");
          for (const uint32_t u : request) {
            const VertexId v = remote.vertex(u);
            views[u] = srv.Read(v, srv.RowOf(v), kAllEdgeTypes, e,
                                delta_of(w));
          }
        }
        // Admit fetched data into the reactive cache (caches are not
        // thread-safe; this is the reading worker's thread). Updated
        // vertices are never admitted: the cache may only ever hold
        // pre-update data, which is what makes the dirty-bypass rule exact.
        for (const uint32_t u : request) {
          const VertexId v = remote.vertex(u);
          if (cache != nullptr && !BypassCache(cache, dirty.get(), v, e)) {
            cache->OnRemoteFetch(v, views[u]);
          }
          if (!all_types) {
            views[u] = srv.Read(v, srv.RowOf(v), type, e, delta_of(w));
          }
        }
      });
  size_t failed_slots = 0;
  for (const auto& [slot, u] : remote.slots()) {
    out->spans[slot] = views[u];
    if (remote.failed(u)) {
      out->ok[slot] = 0;
      ++failed_slots;
    }
  }

  // Only admitted requests moved bytes: failed vertices are excluded from
  // the payload counters (their cost lives in retry_* / failed_reads).
  const uint64_t unique_remote = remote.size() - remote.num_failed();
  if (stats != nullptr) {
    stats->local_reads.fetch_add(local_count);
    stats->cache_hits.fetch_add(hit_count);
    stats->remote_reads.fetch_add(unique_remote);
    stats->batched_remote_reads.fetch_add(unique_remote);
    stats->remote_batches.fetch_add(contacted_workers);
  }
  if (obs_.local_reads != nullptr) {
    obs_.local_reads->Add(local_count);
    obs_.cache_hits->Add(hit_count);
    obs_.remote_reads->Add(unique_remote);
    obs_.batched_remote_reads->Add(unique_remote);
    obs_.remote_batches->Add(contacted_workers);
  }
  if (failed_slots == 0) return Status::OK();
  return Status::Unavailable(std::to_string(failed_slots) + " of " +
                             std::to_string(batch.size()) +
                             " batch slots exhausted their retry budget");
}

double Cluster::InstallImportanceCache(int depth,
                                       const std::vector<double>& taus) {
  const ImportanceSelection sel =
      SelectImportantVertices(*graph_, depth, taus);
  for (auto& srv : servers_) {
    srv->set_neighbor_cache(std::make_unique<StaticNeighborCache>(
        "importance", *graph_, sel.vertices));
  }
  return sel.cache_rate;
}

void Cluster::InstallTopImportanceCache(int k, double fraction) {
  const std::vector<VertexId> top = SelectTopImportance(*graph_, k, fraction);
  for (auto& srv : servers_) {
    srv->set_neighbor_cache(
        std::make_unique<StaticNeighborCache>("importance", *graph_, top));
  }
}

void Cluster::InstallRandomCache(double fraction, uint64_t seed) {
  const std::vector<VertexId> pick =
      SelectRandomVertices(*graph_, fraction, seed);
  for (auto& srv : servers_) {
    srv->set_neighbor_cache(
        std::make_unique<StaticNeighborCache>("random", *graph_, pick));
  }
}

void Cluster::InstallLruCache(size_t capacity_vertices) {
  for (auto& srv : servers_) {
    srv->set_neighbor_cache(
        std::make_unique<LruNeighborCache>(capacity_vertices));
  }
}

void Cluster::ClearCaches() {
  for (auto& srv : servers_) srv->set_neighbor_cache(nullptr);
}

double NaiveLockedBuildMillis(const AttributedGraph& graph) {
  Timer timer;
  std::mutex mu;
  std::unordered_map<VertexId, std::vector<Neighbor>> adjacency;
  const VertexId n = graph.num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    for (const Neighbor& nb : graph.OutNeighbors(v)) {
      std::lock_guard<std::mutex> lock(mu);  // global synchronization
      adjacency[v].push_back(nb);
    }
  }
  return timer.ElapsedMillis();
}

}  // namespace aligraph
