/// \file layout.h
/// \brief Locality-preserving vertex reordering for the sampling hot path.
///
/// GNNSampler (PAPERS.md, arXiv:2108.11571) measures that where a graph's
/// vertices sit in memory is the dominant lever for sampling throughput:
/// k-hop expansion touches adjacency lists in frontier order, and on a
/// power-law graph (GLISP, arXiv:2401.03114) a handful of hub vertices
/// absorb most of those touches. A layout that packs the hot vertices'
/// adjacency together turns a DRAM-latency walk into an L2-resident one.
///
/// This subsystem computes a vertex permutation (LayoutPolicy), rebuilds
/// graph storage under it (ApplyLayout -> AttributedGraph::Reordered), and
/// keeps the old<->new id maps so everything OUTSIDE the walk — partition
/// plans, cache configs, serve roots, reports — continues to speak
/// original ids. The contract, enforced by tests/test_layout.cc rather
/// than argued: a reordering is OBSERVATIONALLY INVISIBLE. Sampling,
/// block building and GNN forward on the reordered graph are bit-identical
/// (after mapping ids back through the layout) to the identity layout,
/// because Reordered preserves per-vertex neighbor order and samplers
/// consume their RNG streams positionally.
///
/// The payoff is modeled, not just measured: ModeledScanCost replays a
/// recorded access trace (every adjacency read, in the order the sampler
/// makes it) through an LRU cache-line model over the CSR's actual
/// storage geometry, so bench_table4's reorder-on/off variants gate a
/// deterministic `sampling.reorder_speedup` in CI.

#ifndef ALIGRAPH_LAYOUT_LAYOUT_H_
#define ALIGRAPH_LAYOUT_LAYOUT_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "nn/matrix.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace layout {

/// \brief How the permutation is chosen.
enum class LayoutPolicy {
  kIdentity,          ///< no-op layout (the differential baseline)
  kDegreeDescending,  ///< hub-first: new id = rank by descending out+in degree
  kBfsCluster,        ///< hub-seeded BFS: communities land contiguously
  kHotFirst,  ///< traffic-first: caller-supplied access ranking leads; see
              ///< ComputeHotFirstLayout
};

const char* PolicyName(LayoutPolicy policy);

/// \brief A vertex permutation with both directions materialized.
///
/// new_of_old[v] is where old vertex v lives in the reordered graph;
/// old_of_new is the inverse. Identity layouts keep both maps (uniform
/// code paths beat special cases in differential tests).
struct VertexLayout {
  LayoutPolicy policy = LayoutPolicy::kIdentity;
  std::vector<VertexId> new_of_old;
  std::vector<VertexId> old_of_new;

  VertexId ToNew(VertexId old_id) const { return new_of_old[old_id]; }
  VertexId ToOld(VertexId new_id) const { return old_of_new[new_id]; }
  size_t num_vertices() const { return new_of_old.size(); }

  bool IsIdentity() const {
    for (size_t v = 0; v < new_of_old.size(); ++v) {
      if (new_of_old[v] != static_cast<VertexId>(v)) return false;
    }
    return true;
  }

  static VertexLayout Identity(VertexId n);
};

/// True iff `layout` holds a bijection over [0, n) with a consistent
/// inverse — the precondition ApplyLayout enforces.
bool IsValidPermutation(const VertexLayout& layout, VertexId n);

/// Computes the permutation for a policy. Deterministic for a fixed graph:
/// all ties break toward the smaller old id. kHotFirst needs a traffic
/// ranking and must go through ComputeHotFirstLayout instead (CHECK-fails
/// here).
VertexLayout ComputeLayout(const AttributedGraph& graph, LayoutPolicy policy);

/// Traffic-aware layout: vertices take new ids in `hot_order` rank order
/// (descending expected access frequency — e.g. item popularity from serve
/// logs, which on real traffic correlates only loosely with degree).
/// `hot_order` may be partial and may repeat ids; the first occurrence
/// wins and every unranked vertex follows in ascending old id. The result
/// packs the traffic-hot working set into a contiguous CSR prefix, which
/// is what keeps the adjacency a batch gather touches within a small set
/// of cache lines.
VertexLayout ComputeHotFirstLayout(const AttributedGraph& graph,
                                   std::span<const VertexId> hot_order);

/// Rebuilds graph storage under `layout` (per-vertex neighbor order
/// preserved; attribute stores shared). InvalidArgument when the layout is
/// not a size-matching permutation of the graph's vertex set.
Result<AttributedGraph> ApplyLayout(const AttributedGraph& graph,
                                    const VertexLayout& layout);

/// Maps ids elementwise into the reordered space (for roots entering a
/// reordered walk) ...
std::vector<VertexId> MapToNew(const VertexLayout& layout,
                               std::span<const VertexId> old_ids);
/// ... and back into original space (for sampled ids leaving it).
std::vector<VertexId> MapToOld(const VertexLayout& layout,
                               std::span<const VertexId> new_ids);

/// Permutes a per-vertex row matrix into the reordered space: output row
/// layout.ToNew(v) is input row v. Feature tables fed to a reordered graph
/// must go through this so vertex payloads follow their ids.
nn::Matrix PermuteRows(const nn::Matrix& rows, const VertexLayout& layout);

/// \brief NeighborSource decorator that records every vertex whose
/// adjacency is read, in read order. The trace (in the inner source's id
/// space) is what ModeledScanCost replays under different layouts.
class RecordingNeighborSource : public NeighborSource {
 public:
  explicit RecordingNeighborSource(NeighborSource& inner) : inner_(inner) {}

  std::span<const Neighbor> Neighbors(VertexId v) override {
    trace_.push_back(v);
    return inner_.Neighbors(v);
  }
  std::span<const Neighbor> Neighbors(VertexId v, EdgeType type) override {
    trace_.push_back(v);
    return inner_.Neighbors(v, type);
  }
  // Batched reads are recorded in slot order, the order
  // LocalNeighborSource::NeighborsBatch touches the adjacency in.
  Status NeighborsBatch(std::span<const VertexId> vertices, EdgeType type,
                        BatchResult* out) override {
    trace_.insert(trace_.end(), vertices.begin(), vertices.end());
    return inner_.NeighborsBatch(vertices, type, out);
  }

  const std::vector<VertexId>& trace() const { return trace_; }
  void ClearTrace() { trace_.clear(); }

 private:
  NeighborSource& inner_;
  std::vector<VertexId> trace_;
};

/// \brief Modeled memory hierarchy for the CSR walk: a fully associative
/// LRU over cache lines of the merged out-neighbor array. Deliberately
/// simple — the model only has to rank layouts, and LRU over lines is the
/// standard locality proxy (GNNSampler evaluates layouts the same way).
struct CacheModelConfig {
  size_t line_bytes = 64;
  /// Lines the modeled cache holds. The default (4096 lines = 256 KiB of
  /// adjacency) is an L2-ish budget; benches size it relative to the graph
  /// so the model stays scale-independent.
  size_t cache_lines = 4096;
  double hit_us = 0.001;   ///< modeled cost per line on hit
  double miss_us = 0.020;  ///< modeled cost per line on miss (DRAM fetch)
  /// Model the hardware stream prefetcher: a miss on the line immediately
  /// after the previously accessed line is charged hit_us (the fetch was
  /// already in flight). This is what rewards layouts that turn a hot
  /// batch gather into a monotone walk over a packed prefix.
  bool stream_prefetch = true;
};

/// \brief Outcome of replaying one access trace through the cache model.
struct ScanCost {
  uint64_t line_accesses = 0;  ///< total cache-line touches
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Misses hidden by the modeled stream prefetcher (a subset of
  /// `misses`); each is charged hit_us instead of miss_us.
  uint64_t prefetched = 0;
  double modeled_us = 0;  ///< (hits + prefetched) * hit_us + rest * miss_us

  double HitRate() const {
    return line_accesses == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(line_accesses);
  }
};

/// Replays `visits` (ids in the graph's OWN space, in access order) as
/// whole-adjacency scans through the LRU line model over the graph's
/// merged out-CSR geometry. Pure function of (graph layout, trace, config)
/// — bit-stable across machines, which is what lets CI gate the
/// identity-vs-reordered cost ratio.
ScanCost ModeledScanCost(const AttributedGraph& graph,
                         std::span<const VertexId> visits,
                         const CacheModelConfig& config = {});

}  // namespace layout
}  // namespace aligraph

#endif  // ALIGRAPH_LAYOUT_LAYOUT_H_
