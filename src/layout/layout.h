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
/// This subsystem computes one kind of vertex permutation, hot-first over
/// a caller's access ranking (ComputeHotFirstLayout), rebuilds graph
/// storage under it (ApplyLayout -> AttributedGraph::Reordered), and keeps
/// the old<->new id maps so everything OUTSIDE the walk — partition plans,
/// cache configs, serve roots, reports — continues to speak original ids.
/// The contract, enforced by tests/test_layout.cc rather than argued: a
/// reordering is OBSERVATIONALLY INVISIBLE. Sampling, block building and
/// GNN forward on the reordered graph are bit-identical (after mapping ids
/// back through the layout) to the original graph, because Reordered
/// preserves per-vertex neighbor order and samplers consume their RNG
/// streams positionally.
///
/// No training or serving path applies a layout yet. Whether the packing
/// pays is a wall-clock question: perfbench's `layout.hot_first_read_ratio`
/// times a batched read of the same frontiers before and after.

#ifndef ALIGRAPH_LAYOUT_LAYOUT_H_
#define ALIGRAPH_LAYOUT_LAYOUT_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "nn/matrix.h"

namespace aligraph {
namespace layout {

/// \brief A vertex permutation with both directions materialized.
///
/// new_of_old[v] is where old vertex v lives in the reordered graph;
/// old_of_new is the inverse. Identity layouts keep both maps (uniform
/// code paths beat special cases in differential tests).
struct VertexLayout {
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

}  // namespace layout
}  // namespace aligraph

#endif  // ALIGRAPH_LAYOUT_LAYOUT_H_
