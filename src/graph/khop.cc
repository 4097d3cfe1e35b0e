#include "graph/khop.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace aligraph {
namespace {

// One step of the path-count recurrence: next[v] = sum over the chosen
// adjacency of prev[u]. For out-counts we push along out-edges; a vertex's
// k-hop out-count is the sum of its out-neighbors' (k-1)-hop out-counts.
std::vector<double> Recurrence(const AttributedGraph& graph, int k,
                               bool out) {
  const VertexId n = graph.num_vertices();
  std::vector<double> counts(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    counts[v] = static_cast<double>(out ? graph.OutDegree(v)
                                        : graph.InDegree(v));
  }
  std::vector<double> next(n, 0.0);
  for (int hop = 2; hop <= k; ++hop) {
    for (VertexId v = 0; v < n; ++v) {
      double acc = 0;
      const auto nbs = out ? graph.OutNeighbors(v) : graph.InNeighbors(v);
      for (const Neighbor& nb : nbs) acc += counts[nb.dst];
      next[v] = acc;
    }
    counts.swap(next);
  }
  return counts;
}

}  // namespace

std::vector<double> KHopOutCounts(const AttributedGraph& graph, int k) {
  ALIGRAPH_CHECK_GE(k, 1);
  obs::ScopedSpan span("khop/out_counts");
  return Recurrence(graph, k, /*out=*/true);
}

std::vector<double> KHopInCounts(const AttributedGraph& graph, int k) {
  ALIGRAPH_CHECK_GE(k, 1);
  obs::ScopedSpan span("khop/in_counts");
  return Recurrence(graph, k, /*out=*/false);
}

std::vector<double> ImportanceScores(const AttributedGraph& graph, int k) {
  obs::ScopedSpan span("khop/importance");
  const std::vector<double> din = KHopInCounts(graph, k);
  const std::vector<double> dout = KHopOutCounts(graph, k);
  std::vector<double> imp(din.size(), 0.0);
  for (size_t v = 0; v < din.size(); ++v) {
    if (dout[v] > 0) imp[v] = din[v] / dout[v];
  }
  return imp;
}

}  // namespace aligraph
