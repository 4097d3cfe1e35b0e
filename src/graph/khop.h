/// \file khop.h
/// \brief k-hop neighborhood counts D_i^k / D_o^k and the importance metric
/// Imp_k(v) = D_i^k(v) / D_o^k(v) (Equation 1 of the paper).
///
/// Counts are path counts (neighbors counted with multiplicity), computed by
/// k sparse matrix-vector products in O(k*m). The paper's proofs of Theorems
/// 1-2 use exactly this recurrence (D^k as a product over hop degrees), so
/// path counts are the faithful — and scalable — interpretation.

#ifndef ALIGRAPH_GRAPH_KHOP_H_
#define ALIGRAPH_GRAPH_KHOP_H_

#include <vector>

#include "graph/graph.h"

namespace aligraph {

/// Number of k-hop out-paths starting at each vertex (k >= 1).
std::vector<double> KHopOutCounts(const AttributedGraph& graph, int k);

/// Number of k-hop in-paths ending at each vertex (k >= 1).
std::vector<double> KHopInCounts(const AttributedGraph& graph, int k);

/// Imp_k(v) = D_i^k(v) / D_o^k(v). Vertices with D_o^k = 0 get importance 0
/// (caching their out-neighbors would be free but also useless).
std::vector<double> ImportanceScores(const AttributedGraph& graph, int k);

}  // namespace aligraph

#endif  // ALIGRAPH_GRAPH_KHOP_H_
