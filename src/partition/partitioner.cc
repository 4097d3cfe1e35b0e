#include "partition/partitioner.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>

#include "common/logging.h"
#include "common/random.h"

namespace aligraph {

WorkerId Placement::ServingWorker(VertexId v, WorkerId from) const {
  if (vertex_owner[v] == from) return from;
  auto it = replicas.find(v);
  if (it == replicas.end()) return vertex_owner[v];
  const std::vector<WorkerId>& extra = it->second;
  for (const WorkerId r : extra) {
    if (r == from) return from;
  }
  // Remote read of a replicated vertex: spread deterministically over all
  // copies (primary + replicas) keyed by (v, from) so distinct readers fan
  // out while any single reader stays stable across retries.
  const size_t copies = extra.size() + 1;
  const size_t idx = static_cast<size_t>(
      Mix64(static_cast<uint64_t>(v) ^ (static_cast<uint64_t>(from) << 32)) %
      copies);
  return idx == 0 ? vertex_owner[v] : extra[idx - 1];
}

void Placement::IndexRows() {
  ALIGRAPH_CHECK(num_workers <= kMaxWorkers)
      << num_workers << " workers do not fit a route word";
  const VertexId n = static_cast<VertexId>(vertex_owner.size());
  std::vector<uint32_t> next_row(num_workers, 0);
  route.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    const WorkerId owner = vertex_owner[v];
    route[v] = RouteWord::Pack(owner, next_row[owner]++, false);
  }
  replica_rank.clear();
  if (replicas.empty()) return;
  for (const auto& [v, workers] : replicas) {
    route[v] = RouteWord::Pack(route[v].owner(), route[v].row(), true);
  }
  replica_rank.assign(n, kNoRow);
  uint32_t rank = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (route[v].replicated()) replica_rank[v] = rank++;
  }
}

std::string PartitionStats::ToString() const {
  std::ostringstream os;
  os << "cut=" << edge_cut_fraction << " vbal=" << vertex_balance
     << " ebal=" << edge_balance << " repl=" << replication_factor
     << " hot=" << hot_server_share;
  return os.str();
}

PartitionStats ComputePartitionStats(const AttributedGraph& graph,
                                     const Placement& placement) {
  PartitionStats stats;
  const VertexId n = graph.num_vertices();
  const uint32_t p = placement.num_workers;
  std::vector<size_t> vcount(p, 0), ecount(p, 0);
  size_t crossing = 0, total = 0;
  for (VertexId v = 0; v < n; ++v) {
    const WorkerId w = placement.OwnerOf(v);
    ++vcount[w];
    for (const Neighbor& nb : graph.OutNeighbors(v)) {
      ++ecount[w];
      ++total;
      if (placement.OwnerOf(nb.dst) != w) ++crossing;
    }
  }
  stats.edge_cut_fraction =
      total == 0 ? 0.0 : static_cast<double>(crossing) / total;
  const double vavg = static_cast<double>(n) / p;
  const double eavg = static_cast<double>(total) / p;
  size_t vmax = 0, emax = 0;
  for (uint32_t w = 0; w < p; ++w) {
    vmax = std::max(vmax, vcount[w]);
    emax = std::max(emax, ecount[w]);
  }
  stats.vertex_balance = vavg > 0 ? vmax / vavg : 0;
  stats.edge_balance = eavg > 0 ? emax / eavg : 0;
  stats.replication_factor = placement.ReplicationFactor();

  // Modeled serviced-traffic distribution: each vertex v attracts
  // in-degree-proportional read traffic (hubs are read in proportion to how
  // many adjacency lists mention them; +1 keeps isolated vertices warm),
  // issued uniformly from every worker and routed by ServingWorker. The
  // busiest worker's share is the hot-server metric replication targets.
  std::vector<double> served(p, 0.0);
  double traffic_total = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    const double traffic = static_cast<double>(graph.InDegree(v)) + 1.0;
    traffic_total += traffic;
    const double per_reader = traffic / static_cast<double>(p);
    for (uint32_t from = 0; from < p; ++from) {
      served[placement.ServingWorker(v, static_cast<WorkerId>(from))] +=
          per_reader;
    }
  }
  double served_max = 0.0;
  for (uint32_t w = 0; w < p; ++w) served_max = std::max(served_max, served[w]);
  stats.hot_server_share =
      traffic_total > 0 ? served_max / traffic_total : 0.0;
  return stats;
}

Result<PartitionPlan> EdgeCutPartitioner::Partition(
    const AttributedGraph& graph, uint32_t num_workers) const {
  if (num_workers == 0) return Status::InvalidArgument("num_workers == 0");
  PartitionPlan plan;
  plan.num_workers = num_workers;
  plan.vertex_owner.resize(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    plan.vertex_owner[v] = static_cast<WorkerId>(Mix64(v) % num_workers);
  }
  return plan;
}

Result<PartitionPlan> VertexCutPartitioner::Partition(
    const AttributedGraph& graph, uint32_t num_workers) const {
  return PartitionWithReplication(graph, num_workers, nullptr);
}

Result<PartitionPlan> VertexCutPartitioner::PartitionWithReplication(
    const AttributedGraph& graph, uint32_t num_workers,
    double* replication) const {
  if (num_workers == 0) return Status::InvalidArgument("num_workers == 0");
  const VertexId n = graph.num_vertices();
  const uint32_t p = num_workers;

  // replicas[v] is the bitset (capped at 64 workers; beyond that we fall
  // back to hashing) of workers already holding an edge of v.
  const bool use_bits = p <= 64;
  std::vector<uint64_t> replicas(use_bits ? n : 0, 0);
  std::vector<size_t> load(p, 0);
  // edges_on[v][w] counts v's out-edges on worker w, used for the majority
  // ownership vote; tracked sparsely via per-vertex best counters.
  std::vector<WorkerId> best_worker(n, 0);
  std::vector<uint32_t> best_count(n, 0);
  std::vector<std::vector<uint32_t>> per_vertex_counts;
  if (use_bits) per_vertex_counts.assign(n, std::vector<uint32_t>());

  auto pick = [&](VertexId u, VertexId v) -> WorkerId {
    if (!use_bits) return static_cast<WorkerId>(Mix64(u ^ Mix64(v)) % p);
    const uint64_t cand = replicas[u] | replicas[v];
    WorkerId best = 0;
    size_t best_load = SIZE_MAX;
    if (cand != 0) {
      for (uint32_t w = 0; w < p; ++w) {
        if ((cand >> w) & 1) {
          if (load[w] < best_load) {
            best_load = load[w];
            best = w;
          }
        }
      }
      return best;
    }
    for (uint32_t w = 0; w < p; ++w) {
      if (load[w] < best_load) {
        best_load = load[w];
        best = w;
      }
    }
    return best;
  };

  for (VertexId u = 0; u < n; ++u) {
    for (const Neighbor& nb : graph.OutNeighbors(u)) {
      const WorkerId w = pick(u, nb.dst);
      ++load[w];
      if (use_bits) {
        replicas[u] |= 1ULL << w;
        replicas[nb.dst] |= 1ULL << w;
        auto& counts = per_vertex_counts[u];
        if (counts.size() < p) counts.resize(p, 0);
        if (++counts[w] > best_count[u]) {
          best_count[u] = counts[w];
          best_worker[u] = w;
        }
      } else {
        best_worker[u] = w;
      }
    }
  }

  PartitionPlan plan;
  plan.num_workers = p;
  plan.vertex_owner.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    // Isolated vertices hash; others follow their edge majority.
    plan.vertex_owner[v] = graph.OutDegree(v) == 0
                               ? static_cast<WorkerId>(Mix64(v) % p)
                               : best_worker[v];
  }

  if (replication != nullptr && use_bits) {
    double total = 0;
    size_t counted = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (replicas[v] == 0) continue;
      total += static_cast<double>(std::popcount(replicas[v]));
      ++counted;
    }
    *replication = counted == 0 ? 1.0 : total / static_cast<double>(counted);
  }
  return plan;
}

Result<PartitionPlan> Grid2DPartitioner::Partition(
    const AttributedGraph& graph, uint32_t num_workers) const {
  if (num_workers == 0) return Status::InvalidArgument("num_workers == 0");
  // Choose the most square grid r x c with r*c == num_workers.
  uint32_t r = 1;
  for (uint32_t d = 1; d * d <= num_workers; ++d) {
    if (num_workers % d == 0) r = d;
  }
  const uint32_t c = num_workers / r;
  const VertexId n = graph.num_vertices();

  PartitionPlan plan;
  plan.num_workers = num_workers;
  plan.vertex_owner.resize(n);
  // Vertices are range-assigned to row blocks; within a row block they are
  // spread across the columns, giving each worker a contiguous 2-D tile of
  // the adjacency matrix's row space.
  for (VertexId v = 0; v < n; ++v) {
    const uint64_t row = static_cast<uint64_t>(v) * r / std::max<VertexId>(n, 1);
    const uint32_t col = static_cast<uint32_t>(Mix64(v) % c);
    plan.vertex_owner[v] = static_cast<WorkerId>(row * c + col);
  }
  return plan;
}

Result<PartitionPlan> StreamingPartitioner::Partition(
    const AttributedGraph& graph, uint32_t num_workers) const {
  if (num_workers == 0) return Status::InvalidArgument("num_workers == 0");
  const VertexId n = graph.num_vertices();
  const uint32_t p = num_workers;
  const double capacity =
      slack_ * static_cast<double>(n) / static_cast<double>(p);

  PartitionPlan plan;
  plan.num_workers = p;
  plan.vertex_owner.assign(n, 0);
  std::vector<uint8_t> placed(n, 0);
  std::vector<size_t> load(p, 0);
  std::vector<double> score(p, 0);

  for (VertexId v = 0; v < n; ++v) {
    std::fill(score.begin(), score.end(), 0.0);
    for (const Neighbor& nb : graph.OutNeighbors(v)) {
      if (placed[nb.dst]) score[plan.vertex_owner[nb.dst]] += 1.0;
    }
    for (const Neighbor& nb : graph.InNeighbors(v)) {
      if (placed[nb.dst]) score[plan.vertex_owner[nb.dst]] += 1.0;
    }
    WorkerId best = 0;
    double best_score = -1.0;
    for (uint32_t w = 0; w < p; ++w) {
      const double penalty = 1.0 - static_cast<double>(load[w]) / capacity;
      const double s = (score[w] + 1e-9) * std::max(penalty, 0.0);
      if (s > best_score || (s == best_score && load[w] < load[best])) {
        best_score = s;
        best = w;
      }
    }
    plan.vertex_owner[v] = best;
    placed[v] = 1;
    ++load[best];
  }
  return plan;
}

HybridSkewPartitioner::HybridSkewPartitioner(Options options)
    : options_(std::move(options)) {}

Result<Placement> HybridSkewPartitioner::Partition(const AttributedGraph& graph,
                                                   uint32_t num_workers) const {
  if (num_workers == 0) return Status::InvalidArgument("num_workers == 0");
  if (options_.tail == "hybrid") {
    return Status::InvalidArgument("hybrid tail partitioner cannot be hybrid");
  }
  ALIGRAPH_ASSIGN_OR_RETURN(auto tail, MakePartitioner(options_.tail));
  ALIGRAPH_ASSIGN_OR_RETURN(Placement placement,
                            tail->Partition(graph, num_workers));
  if (num_workers == 1) return placement;  // nothing to replicate onto

  const VertexId n = graph.num_vertices();
  size_t threshold = options_.degree_threshold;
  if (threshold == 0) {
    // Derive: replicate at most the top hub_fraction of vertices by
    // out-degree, and only vertices strictly above the mean degree — a
    // uniform-degree graph has no hubs and stays replica-free.
    size_t total_deg = 0;
    std::vector<size_t> degrees(n);
    for (VertexId v = 0; v < n; ++v) {
      degrees[v] = graph.OutDegree(v);
      total_deg += degrees[v];
    }
    const size_t hubs = static_cast<size_t>(
        static_cast<double>(n) * std::clamp(options_.hub_fraction, 0.0, 1.0));
    if (hubs == 0 || n == 0) return placement;
    std::nth_element(degrees.begin(), degrees.end() - hubs, degrees.end());
    const size_t top_cut = degrees[n - hubs];
    const double mean = static_cast<double>(total_deg) / std::max<VertexId>(n, 1);
    threshold = std::max<size_t>(top_cut, static_cast<size_t>(mean) + 1);
    if (threshold == 0) threshold = 1;
  }

  const uint32_t copies =
      options_.replicas == 0
          ? num_workers
          : std::min<uint32_t>(std::max<uint32_t>(options_.replicas, 1),
                               num_workers);
  if (copies <= 1) return placement;

  for (VertexId v = 0; v < n; ++v) {
    if (graph.OutDegree(v) < threshold) continue;
    const WorkerId owner = placement.vertex_owner[v];
    std::vector<WorkerId> extra;
    extra.reserve(copies - 1);
    if (copies == num_workers) {
      for (uint32_t w = 0; w < num_workers; ++w) {
        if (w != owner) extra.push_back(static_cast<WorkerId>(w));
      }
    } else {
      // Deterministic spread: walk workers from a hash-derived start so hub
      // replicas don't all pile onto the same k workers.
      const uint32_t start = static_cast<uint32_t>(Mix64(v) % num_workers);
      for (uint32_t i = 0; i < num_workers && extra.size() < copies - 1; ++i) {
        const WorkerId w = static_cast<WorkerId>((start + i) % num_workers);
        if (w != owner) extra.push_back(w);
      }
      std::sort(extra.begin(), extra.end());
    }
    placement.replicas.emplace(v, std::move(extra));
  }
  return placement;
}

const std::vector<std::string>& KnownPartitionerNames() {
  static const std::vector<std::string> names = {
      "edge_cut", "grid2d", "hybrid", "metis", "streaming", "vertex_cut"};
  return names;
}

Result<std::unique_ptr<Partitioner>> MakePartitioner(const std::string& name) {
  if (name == "edge_cut") return std::unique_ptr<Partitioner>(new EdgeCutPartitioner());
  if (name == "vertex_cut") return std::unique_ptr<Partitioner>(new VertexCutPartitioner());
  if (name == "grid2d") return std::unique_ptr<Partitioner>(new Grid2DPartitioner());
  if (name == "streaming") return std::unique_ptr<Partitioner>(new StreamingPartitioner());
  if (name == "metis") return std::unique_ptr<Partitioner>(new MetisPartitioner());
  if (name == "hybrid") return std::unique_ptr<Partitioner>(new HybridSkewPartitioner());
  std::string valid;
  for (const std::string& known : KnownPartitionerNames()) {
    if (!valid.empty()) valid += ", ";
    valid += known;
  }
  return Status::NotFound("unknown partitioner: " + name +
                          " (valid: " + valid + ")");
}

}  // namespace aligraph
