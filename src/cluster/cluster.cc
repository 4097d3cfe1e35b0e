#include "cluster/cluster.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/importance.h"

namespace aligraph {

namespace {

// Tags keep the request-key spaces of the read paths disjoint, so e.g. a
// neighbor read and an attribute read of the same vertex are judged as
// independent requests by the fault injector.
constexpr uint64_t kAttrReadTag = 0x61'7472ULL;        // "atr"
constexpr uint64_t kBatchReadTag = 0x62'6368ULL;       // "bch"
constexpr uint64_t kJitterStreamTag = 0x6a'7472ULL;    // "jtr"

uint64_t AttrRequestKey(VertexId v) {
  return Mix64(static_cast<uint64_t>(v) ^ (kAttrReadTag << 40));
}

constexpr uint64_t kAttrBatchTag = 0x61'6263ULL;  // "abc" (attr batch)

/// The remote residue of one batched read, as the requests it coalesces
/// into: one per serving worker, each keeping its unique-vertex count and,
/// only where the call uses them, its request key and a chain through the
/// first-occurrence slots of its vertices. The key is a fold over the
/// request's vertices in first-occurrence order, taken as each is first
/// seen: pure in the request's payload, so two identical runs judge
/// identical requests identically regardless of call order. Only a read
/// under an enabled injector judges keys, and only a cache that admits
/// fetches walks the chains. Deduplication uses a flat linear-probing set
/// sized for the batch and a multiplicative (Fibonacci) hash, so no entry
/// allocates.
class RemoteResidue {
 public:
  /// `keys`: fold request keys; `slots`: chain first-occurrence slots
  /// (ForEachSlot visits none without).
  RemoteResidue(size_t batch_size, size_t num_workers, uint64_t tag,
                bool keys, bool slots)
      : batch_size_(batch_size),
        keys_(keys),
        slots_(slots),
        requests_(num_workers, Request{tag << 40}) {}

  /// Records that batch slot `slot` asks worker `target` for v.
  void Add(uint32_t slot, VertexId v, WorkerId target) {
    if (set_.empty()) {
      set_.assign(std::bit_ceil(2 * batch_size_), kEmpty);
      shift_ = 64 - std::countr_zero(set_.size());  // at most 63
      if (slots_) links_.reserve(batch_size_);
    }
    const size_t mask = set_.size() - 1;
    size_t h = (v * kFibonacci) >> shift_;
    for (; set_[h] != kEmpty; h = (h + 1) & mask) {
      if (set_[h] == v) return;
    }
    set_[h] = v;
    ++unique_;
    Request& r = requests_[target];
    ++r.count;
    if (keys_) r.key = Mix64(r.key ^ v);
    if (slots_) {
      const uint32_t u = static_cast<uint32_t>(links_.size());
      (r.first == kEnd ? r.first : links_[r.last].next) = u;
      r.last = u;
      links_.push_back({slot, kEnd});
    }
  }

  /// Unique remote vertices.
  size_t size() const { return unique_; }
  /// True when worker w's request was refused.
  bool failed(WorkerId w) const { return requests_[w].failed; }

  /// Judges the requests one after another, in worker order, on the calling
  /// thread. `admit(w, key)` is request w's fault decision; a refused
  /// request is marked failed, an admitted one is passed to `serve(w)`.
  /// Returns the unique vertices refused.
  template <typename Admit, typename Serve>
  uint32_t Judge(Admit admit, Serve serve) {
    uint32_t refused = 0;
    for (WorkerId w = 0; w < requests_.size(); ++w) {
      Request& r = requests_[w];
      if (r.count == 0) continue;
      if (!admit(w, r.key)) {
        r.failed = true;
        refused += r.count;
        continue;
      }
      served_.emplace_back(w, r.count);
      serve(w);
    }
    return refused;
  }

  /// Calls fn on the first-occurrence slot of each vertex of worker w's
  /// request, in first-occurrence order.
  template <typename Fn>
  void ForEachSlot(WorkerId w, Fn fn) const {
    for (uint32_t u = requests_[w].first; u != kEnd; u = links_[u].next) {
      fn(links_[u].slot);
    }
  }

  /// (worker, unique vertices it sent) of every answered request.
  const std::vector<std::pair<WorkerId, uint64_t>>& served() const {
    return served_;
  }

 private:
  static constexpr VertexId kEmpty = kInvalidVertex;
  static constexpr uint32_t kEnd = ~uint32_t{0};
  static constexpr uint64_t kFibonacci = 0x9e37'79b9'7f4a'7c15ULL;  // 2^64/phi
  struct Request {
    uint64_t key;
    uint32_t count = 0;     // unique vertices
    uint32_t first = kEnd;  // chain head and tail (indices into links_)
    uint32_t last = kEnd;
    bool failed = false;
  };
  struct Link {
    uint32_t slot;  // the vertex's first-occurrence slot
    uint32_t next;  // the request's next vertex, or kEnd
  };
  size_t batch_size_;
  bool keys_;
  bool slots_;
  int shift_ = 0;              // 64 - log2(set_.size())
  size_t unique_ = 0;
  std::vector<VertexId> set_;  // the remote vertices seen, or kEmpty
  std::vector<Link> links_;    // one per unique vertex, first-occurrence order
  std::vector<Request> requests_;
  std::vector<std::pair<WorkerId, uint64_t>> served_;
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
  if (num_workers > Placement::kMaxWorkers) {
    return Status::InvalidArgument(
        std::to_string(num_workers) + " workers exceed the route word's " +
        std::to_string(Placement::kMaxWorkers));
  }
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
    reg->GetGauge("cluster.workers")->Set(num_workers);
    reg->GetGauge("cluster.vertices")
        ->Set(static_cast<double>(graph.num_vertices()));
    reg->GetGauge("cluster.edges")
        ->Set(static_cast<double>(graph.num_edges()));
  }
  return cluster;
}

// Forced inline: the batch reads' route pass calls this once per slot,
// with the slot's route word prefetched kAhead slots earlier, so the misses
// of many slots are in flight at once. An out-of-line call limits that
// overlap; it cost a two-reader khop_cluster-style loop about 15% more CPU
// per block on a 4-vCPU x86 VM.
[[gnu::always_inline]] inline Cluster::Route Cluster::Classify(
    WorkerId from, VertexId v, const AdjVersion* ver, NeighborCache* cache,
    const uint8_t* pinned) const {
  const Placement::RouteWord word = plan_->route[v];
  const WorkerId owner = word.owner();
  if (!word.replicated() && ver == nullptr &&
      (cache == nullptr || pinned != nullptr)) {
    // Local, cache hit or remote from the owner: the kind is arithmetic on
    // two flags, (kRemote - hit) off the owner and kLocal (0) on it.
    static_assert(static_cast<int>(Route::Kind::kLocal) == 0 &&
                  static_cast<int>(Route::Kind::kRemote) -
                          static_cast<int>(Route::Kind::kCacheHit) ==
                      1);
    const uint32_t hit = pinned != nullptr && pinned[v] != 0;
    const uint32_t kind = static_cast<uint32_t>(owner != from) *
                          (static_cast<uint32_t>(Route::Kind::kRemote) - hit);
    return {static_cast<Route::Kind>(kind), owner, word.row()};
  }
  if (owner == from) return {Route::Kind::kLocal, from, word.row()};
  const uint32_t rank =
      word.replicated() ? plan_->replica_rank[v] : Placement::kNoRow;
  if (rank != Placement::kNoRow) {
    const uint32_t row = servers_[from]->ReplicaRow(rank);
    if (row != GraphServer::kNoRow) return {Route::Kind::kReplica, from, row};
  }
  if (cache != nullptr && !BypassCache(cache, ver, v) && cache->Lookup(v)) {
    // The cache holds no bytes: the owner's row is the pre-update adjacency.
    return {Route::Kind::kCacheHit, owner, word.row()};
  }
  if (rank == Placement::kNoRow) {
    return {Route::Kind::kRemote, owner, word.row()};
  }
  const WorkerId target = plan_->ServingWorker(v, from);
  return {Route::Kind::kRemote, target, servers_[target]->RowOf(v)};
}

void Cluster::Charge(WorkerId from, const ReadTally& tally, CommStats* stats) {
  const uint64_t own = tally.local + tally.replica + tally.hit;
  if (own != 0) served_reads_[from].fetch_add(own, std::memory_order_relaxed);
  for (const auto& [w, n] : tally.remote_served) {
    served_reads_[w].fetch_add(n, std::memory_order_relaxed);
  }
  auto add = [](std::atomic<uint64_t>& stat, uint64_t n) {
    if (n != 0) stat.fetch_add(n);
  };
  if (stats != nullptr) {
    add(stats->local_reads, tally.local);
    add(stats->replica_reads, tally.replica);
    add(stats->cache_hits, tally.hit);
    add(stats->remote_reads, tally.remote);
    add(stats->batched_remote_reads, tally.batched_remote);
    add(stats->remote_batches, tally.batches);
    add(stats->faults_injected, tally.faults);
    add(stats->retry_attempts, tally.retries);
    add(stats->retry_backoff_us, tally.backoff_us);
    add(stats->failed_reads, tally.failed);
  }
}

std::span<const Neighbor> Cluster::ReadNeighbors(WorkerId from, VertexId v,
                                                 EdgeType type,
                                                 CommStats* stats,
                                                 uint64_t epoch) {
  EpochPin pin;
  const uint64_t e = ResolveEpoch(epoch, &pin);
  NeighborCache* cache = servers_[from]->neighbor_cache();
  // Every copy of v serves the same version, whichever row the route picks.
  const AdjVersion* ver = VersionAt(v, e);
  const Route route = Classify(from, v, ver, cache, /*pinned=*/nullptr);
  ReadTally tally;
  tally.Count(route.kind);
  const std::pair<WorkerId, uint64_t> served{route.worker, 1};
  if (route.kind == Route::Kind::kRemote) {
    tally.remote_served = {&served, 1};
    AdmitFetched(cache, ver, v);
  }
  Charge(from, tally, stats);
  return servers_[route.worker]->Read(route.row, type, ver);
}

bool Cluster::RemoteRequestSucceeds(WorkerId from, WorkerId to,
                                    uint64_t request_key, ReadTally* tally) {
  if (injector_ == nullptr || !injector_->enabled()) return true;
  const RetryPolicy& policy = retry_policy_;
  double charged_us = 0;  // backoff + injected latency, billed to the model
  double elapsed_us = 0;  // modeled request clock, checked vs the deadline
  uint32_t retries = 0;
  bool success = false;

  FaultDecision d = injector_->Decide(from, to, request_key, 1);
  if (d.kind != FaultKind::kNone) ++tally->faults;
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
      if (d.kind != FaultKind::kNone) ++tally->faults;
      charged_us += d.latency_us;
      elapsed_us += d.latency_us;
      if (d.Succeeds() && elapsed_us <= policy.deadline_us) {
        success = true;
        break;
      }
    }
  }

  tally->retries += retries;
  tally->backoff_us += static_cast<uint64_t>(charged_us + 0.5);
  if (!success) ++tally->failed;
  return success;
}

template <typename ReadSlot, typename PrefetchSlot, typename ClearSlot>
Status Cluster::ReadBatch(WorkerId from, std::span<const VertexId> batch,
                          uint64_t e, NeighborCache* cache, uint64_t tag,
                          const char* what, CommStats* stats,
                          ReadSlot read, PrefetchSlot prefetch,
                          ClearSlot clear) {
  // Route pass, in slot order, so cache lookups, recency touches and
  // bypass invalidations keep the order of per-vertex reads. Each slot
  // resolves its version once (kept only at a nonzero epoch): it decides
  // whether the cache may serve the slot and is what every copy returns.
  // The loads of slot i + kAhead (its route word, and its version head at
  // a nonzero epoch, and its pin byte under a static cache) are prefetched
  // while slot i is routed, and slot i's row is prefetched for the read
  // pass as soon as its route is known.
  const bool judged = fault_injection_enabled();
  const uint8_t* pinned = cache != nullptr ? cache->pinned() : nullptr;
  const bool admits = cache != nullptr && pinned == nullptr;
  std::vector<Route> routes(batch.size());
  std::vector<uint32_t> remote_slots(batch.size());
  size_t num_remote = 0;
  uint32_t kinds[4] = {};  // slots per Route::Kind
  std::vector<const AdjVersion*> versions(e != 0 ? batch.size() : 0);
  const VersionIndex* heads = e != 0 ? versions_.get() : nullptr;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i + kAhead < batch.size()) {
      const VertexId ahead = batch[i + kAhead];
      ALIGRAPH_PREFETCH(&plan_->route[ahead]);
      if (heads != nullptr) heads->Prefetch(ahead);
      if (pinned != nullptr) ALIGRAPH_PREFETCH(pinned + ahead);
    }
    const AdjVersion* ver = VersionAt(batch[i], e);
    if (e != 0) versions[i] = ver;
    routes[i] = Classify(from, batch[i], ver, cache, pinned);
    prefetch(routes[i]);
    // Counted by kind, and listed when remote, with stores rather than a
    // branch on the kind: the kind mix of a khop frontier is unpredictable.
    ++kinds[static_cast<size_t>(routes[i].kind)];
    remote_slots[num_remote] = static_cast<uint32_t>(i);
    num_remote += routes[i].kind == Route::Kind::kRemote;
  }
  auto version = [&versions](size_t i) {
    return versions.empty() ? nullptr : versions[i];
  };

  // Read pass: every slot from its route's server. A remote slot reads the
  // serving worker's bytes here too; a refused request clears it below.
  for (size_t i = 0; i < batch.size(); ++i) read(i, routes[i], version(i));

  // Count pass: owned, replica and cached slots count per occurrence (the
  // route pass counted them); the listed remote slots are deduplicated
  // into one request per serving worker.
  ReadTally tally;
  tally.local = kinds[static_cast<size_t>(Route::Kind::kLocal)];
  tally.replica = kinds[static_cast<size_t>(Route::Kind::kReplica)];
  tally.hit = kinds[static_cast<size_t>(Route::Kind::kCacheHit)];
  RemoteResidue remote(batch.size(), servers_.size(), tag,
                       /*keys=*/judged, /*slots=*/admits);
  for (size_t k = 0; k < num_remote; ++k) {
    const uint32_t i = remote_slots[k];
    remote.Add(i, batch[i], routes[i].worker);
  }

  // One fault decision per coalesced message, in worker order: the message
  // is the failure domain, so all slots of a refused request fail
  // together. The vertices of an answered request are admitted to a cache
  // that admits fetches in first-occurrence order; admission runs after
  // every slot was routed, so a repeated remote vertex of this batch is
  // not a hit.
  const uint32_t refused = remote.Judge(
      [&](WorkerId w, uint64_t key) {
        return !judged || RemoteRequestSucceeds(from, w, key, &tally);
      },
      [&](WorkerId w) {
        obs::ScopedSpan serve_span("cluster/remote_serve");
        if (!admits) return;
        remote.ForEachSlot(w, [&](uint32_t i) {
          AdmitFetched(cache, version(i), batch[i]);
        });
      });
  size_t failed_slots = 0;
  if (refused != 0) {
    for (size_t k = 0; k < num_remote; ++k) {
      const uint32_t i = remote_slots[k];
      if (remote.failed(routes[i].worker)) {
        clear(i);
        ++failed_slots;
      }
    }
  }

  // Only answered requests moved bytes: refused vertices are excluded from
  // the payload counters (their cost lives in retry_* / failed_reads).
  tally.remote = tally.batched_remote =
      static_cast<uint32_t>(remote.size() - refused);
  tally.batches = static_cast<uint32_t>(remote.served().size());
  tally.remote_served = remote.served();
  Charge(from, tally, stats);
  if (failed_slots == 0) return Status::OK();
  return Status::Unavailable(std::to_string(failed_slots) + " of " +
                             std::to_string(batch.size()) + " " + what +
                             " exhausted their retry budget");
}

Result<AttrId> Cluster::GetVertexAttr(WorkerId from, VertexId v,
                                      CommStats* stats) {
  // Attributes are immutable, so a replica copy is always current.
  const Route route = Classify(from, v, nullptr, nullptr, nullptr);
  ReadTally tally;
  const std::pair<WorkerId, uint64_t> served{route.worker, 1};
  if (route.kind == Route::Kind::kRemote) {
    if (!RemoteRequestSucceeds(from, route.worker, AttrRequestKey(v),
                               &tally)) {
      Charge(from, tally, stats);
      return Status::Unavailable("attribute of vertex " + std::to_string(v) +
                                 ": worker " + std::to_string(route.worker) +
                                 " did not answer within the retry budget");
    }
    tally.remote_served = {&served, 1};
  }
  tally.Count(route.kind);
  Charge(from, tally, stats);
  return servers_[route.worker]->RowAttr(route.row);
}

Status Cluster::GetVertexAttrBatch(WorkerId from,
                                   std::span<const VertexId> batch,
                                   std::vector<AttrId>* ids, CommStats* stats,
                                   std::vector<uint8_t>* ok) {
  obs::ScopedSpan span("cluster/attr_batch_read");
  ids->resize(batch.size());
  if (ok != nullptr) ok->assign(batch.size(), 1);
  // Attributes are immutable, so any copy is current and none is cached.
  return ReadBatch(
      from, batch, /*e=*/0, /*cache=*/nullptr, kAttrBatchTag,
      "attr slots", stats,
      [&](size_t i, const Route& r, const AdjVersion*) {
        (*ids)[i] = servers_[r.worker]->RowAttr(r.row);
      },
      [&](const Route& r) { servers_[r.worker]->PrefetchAttr(r.row); },
      [&](size_t i) {
        (*ids)[i] = kNoAttr;
        if (ok != nullptr) (*ok)[i] = 0;
      });
}

void Cluster::InstallFaultInjection(FaultConfig config, RetryPolicy policy) {
  retry_policy_ = policy;
  if (retry_policy_.max_attempts == 0) retry_policy_.max_attempts = 1;
  injector_ = std::make_unique<FaultInjector>(std::move(config));
}

void Cluster::ClearFaultInjection() { injector_.reset(); }

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
    // Inserts take the loader's weight rule (GraphBuilder::AddEdge): a NaN,
    // infinite or negative weight would poison kWeighted draws on src.
    const bool bad_insert =
        u.kind == EdgeUpdate::Kind::kInsert &&
        (u.dst >= n || !std::isfinite(u.weight) || u.weight < 0);
    if (u.src >= n || u.type >= num_types || bad_insert) {
      ++skipped;
      continue;
    }
    auto [it, inserted] = by_src.try_emplace(u.src);
    if (inserted) sources.push_back(u.src);
    it->second.push_back(&u);
  }

  // Copy each touched vertex's typed adjacency once, from its newest
  // version (or its owner's base row), into ONE new version stamped at the
  // new epoch, which the primary and every replica serve alike; the
  // updates edit that copy in place, each within its type's segment.
  std::vector<std::pair<VertexId, std::unique_ptr<AdjVersion>>> versions;
  versions.reserve(sources.size());
  for (const VertexId v : sources) {
    const GraphServer& osrv = *servers_[plan_->OwnerOf(v)];
    const uint32_t row = plan_->route[v].row();
    const AdjVersion* head = VersionAt(v, kEpochCurrent);
    const std::vector<const EdgeUpdate*>& ups = by_src[v];
    auto ver = std::make_unique<AdjVersion>();
    ver->epoch = new_epoch;
    std::vector<Neighbor>& list = ver->neighbors;
    std::vector<uint32_t>& offsets = ver->type_offsets;
    const auto all = osrv.Read(row, kAllEdgeTypes, head);
    list.reserve(all.size() + ups.size());
    list.assign(all.begin(), all.end());
    offsets.assign(1, 0);
    for (size_t t = 0; t < num_types; ++t) {
      offsets.push_back(offsets.back() + static_cast<uint32_t>(
          osrv.Read(row, static_cast<EdgeType>(t), head).size()));
    }
    bool changed = false;
    for (const EdgeUpdate* u : ups) {
      const auto end = list.begin() + offsets[u->type + 1];
      const bool insert = u->kind == EdgeUpdate::Kind::kInsert;
      if (insert) {
        list.insert(end, Neighbor{u->dst, u->weight, u->attr});
      } else {
        const auto match =
            std::find_if(list.begin() + offsets[u->type], end,
                         [u](const Neighbor& nb) { return nb.dst == u->dst; });
        if (match == end) {
          ++skipped;
          continue;
        }
        list.erase(match);
      }
      for (size_t t = u->type + 1; t <= num_types; ++t) {
        offsets[t] = insert ? offsets[t] + 1 : offsets[t] - 1;
      }
      ++applied;
      changed = true;
    }
    if (changed) versions.emplace_back(v, std::move(ver));
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

  // One new head per touched vertex, and in the same step the versions no
  // pinned reader can reach any more are freed: the newest version at or
  // below the min-active epoch shadows everything older.
  if (versions_ == nullptr) versions_ = std::make_unique<VersionIndex>(n);
  const uint64_t min_active = epochs_->MinActiveEpoch();
  size_t pruned = 0;
  for (auto& [v, ver] : versions) {
    pruned += versions_->Push(v, std::move(ver), min_active);
  }

  // Every head is pushed, THEN the epoch advances: a reader that sees the
  // new epoch also sees every version of this batch, and one that does not
  // walks past them.
  const uint64_t published = epochs_->Advance();

  if (report != nullptr) {
    report->epoch = published;
    report->applied = applied;
    report->skipped = skipped;
    report->versions_pruned = pruned;
  }
  return Status::OK();
}

Cluster::VersionIndex::VersionIndex(VertexId n) : heads_(n) {}

Cluster::VersionIndex::~VersionIndex() {
  for (std::atomic<AdjVersion*>& head : heads_) {
    for (AdjVersion* ver = head.load(std::memory_order_relaxed);
         ver != nullptr;) {
      delete std::exchange(ver, ver->older);
    }
  }
}

size_t Cluster::VersionIndex::Push(VertexId v,
                                   std::unique_ptr<AdjVersion> ver,
                                   uint64_t min_active) {
  ver->older = heads_[v].load(std::memory_order_relaxed);
  AdjVersion* keep = ver.get();
  heads_[v].store(ver.release(), std::memory_order_release);
  while (keep != nullptr && keep->epoch > min_active) keep = keep->older;
  if (keep == nullptr) return 0;
  size_t freed = 0;
  for (AdjVersion* dead = std::exchange(keep->older, nullptr);
       dead != nullptr; ++freed) {
    delete std::exchange(dead, dead->older);
  }
  return freed;
}

size_t Cluster::VersionIndex::MemoryBytes() const {
  size_t bytes = heads_.size() * sizeof(heads_[0]);
  for (const std::atomic<AdjVersion*>& head : heads_) {
    for (const AdjVersion* ver = head.load(std::memory_order_relaxed);
         ver != nullptr; ver = ver->older) {
      bytes += sizeof(AdjVersion) + ver->neighbors.size() * sizeof(Neighbor) +
               ver->type_offsets.size() * sizeof(uint32_t);
    }
  }
  return bytes;
}

size_t Cluster::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(*update_mu_);
  size_t bytes = versions_ != nullptr ? versions_->MemoryBytes() : 0;
  for (const auto& srv : servers_) bytes += srv->MemoryBytes();
  return bytes;
}

Status Cluster::GetNeighborsBatch(WorkerId from,
                                  std::span<const VertexId> batch,
                                  EdgeType type, BatchResult* out,
                                  CommStats* stats, uint64_t epoch) {
  obs::ScopedSpan span("cluster/batch_read");
  // Resolved once, so the whole batch reads one epoch even unpinned.
  EpochPin pin;
  const uint64_t e = ResolveEpoch(epoch, &pin);
  out->Reset(batch.size());
  return ReadBatch(
      from, batch, e, servers_[from]->neighbor_cache(), kBatchReadTag,
      "batch slots", stats,
      [&](size_t i, const Route& r, const AdjVersion* ver) {
        // The sampler's draws load this span next: start its first line.
        const auto span = servers_[r.worker]->Read(r.row, type, ver);
        if (!span.empty()) ALIGRAPH_PREFETCH(span.data());
        out->spans[i] = span;
      },
      [&](const Route& r) { servers_[r.worker]->PrefetchRow(r.row); },
      [&](size_t i) {
        out->spans[i] = {};
        out->ok[i] = 0;
      });
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
        std::make_unique<LruNeighborCache>(*graph_, capacity_vertices));
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
