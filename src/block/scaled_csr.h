/// \file scaled_csr.h
/// \brief Precompiled propagation structure for the (Fast/AS-)GCN path: the
/// row-normalized, support-restricted adjacency with per-edge scales baked
/// in, so the propagate hot loop is pure Axpy over a CSR — no hash-set
/// membership test and no scale recomputation per edge per call.
///
/// One Gcn::Embed training step propagates twice and back-propagates once
/// over the same support set; compiling the support into a CSR once per
/// step replaces a hash lookup and a scale derivation per edge per call.
///
/// Float-op order contract: for each vertex v in id order, the self loop
/// is applied first, then v's kept edges in OutNeighbors(v) order, each as
/// one Axpy with a float coefficient computed once at build time. GCN,
/// FastGCN and AS-GCN embeddings are pinned bit for bit by golden
/// fingerprints in tests/test_block.cc; reordering any of these operations
/// breaks them.

#ifndef ALIGRAPH_BLOCK_SCALED_CSR_H_
#define ALIGRAPH_BLOCK_SCALED_CSR_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "nn/matrix.h"

namespace aligraph {
namespace block {

/// \brief Row-normalized propagation matrix with self loops, restricted to
/// a support set, as a CSR with one precomputed scale per edge.
struct ScaledCsr {
  std::vector<float> self_scale;   ///< 1 / (deg(v) + 1) per vertex
  std::vector<uint64_t> offsets;   ///< size n + 1
  std::vector<VertexId> src;       ///< supported neighbors, adjacency order
  std::vector<float> scale;        ///< per-edge coefficient, same order

  size_t num_vertices() const { return self_scale.size(); }
  size_t num_edges() const { return src.size(); }

  /// out.Row(v) = self_scale[v] * h.Row(v) + sum_e scale[e] * h.Row(src[e]),
  /// accumulated in the contract order above.
  nn::Matrix Propagate(const nn::Matrix& h) const;

  /// Transposed propagation for the backward pass:
  /// out.Row(v) += self_scale[v] * g.Row(v); out.Row(src[e]) += scale[e] *
  /// g.Row(v), for v in id order, self loop first, then edges in order.
  nn::Matrix PropagateTransposed(const nn::Matrix& g) const;
};

/// Compiles the graph's row-normalized adjacency (with self loops) into a
/// ScaledCsr. `support` == nullptr keeps every edge with scale
/// 1 / (deg(v) + 1); otherwise edges to vertices outside the support are
/// dropped and kept edges get the importance-sampling coefficient
/// 1 / (deg(v) + 1) * support_scale / degree_weight[dst] (the division in
/// double, the product in float).
ScaledCsr BuildPropagationCsr(const AttributedGraph& graph,
                              const std::unordered_set<VertexId>* support,
                              double support_scale,
                              const std::vector<double>& degree_weight);

}  // namespace block
}  // namespace aligraph

#endif  // ALIGRAPH_BLOCK_SCALED_CSR_H_
