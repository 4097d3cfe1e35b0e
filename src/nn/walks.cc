#include "nn/walks.h"

#include <numeric>
#include <unordered_set>

namespace aligraph {
namespace nn {
std::vector<VertexId> AllVertices(const AttributedGraph& graph) {
  std::vector<VertexId> vs(graph.num_vertices());
  std::iota(vs.begin(), vs.end(), 0);
  return vs;
}

std::vector<std::vector<VertexId>> UniformWalks(const AttributedGraph& graph,
                                                const WalkConfig& config) {
  const std::vector<VertexId> starts = AllVertices(graph);
  Rng rng(config.seed);
  return GenerateWalks(
      std::span<const VertexId>(starts), config, rng,
      [&graph](const std::vector<VertexId>& walk, Rng& rng) -> VertexId {
        const auto nbs = graph.OutNeighbors(walk.back());
        if (nbs.empty()) return kInvalidVertex;
        return nbs[rng.Uniform(nbs.size())].dst;
      });
}

std::vector<std::vector<VertexId>> Node2VecWalks(const AttributedGraph& graph,
                                                 const WalkConfig& config,
                                                 double p, double q) {
  const std::vector<VertexId> starts = AllVertices(graph);
  Rng rng(config.seed);
  return GenerateWalks(
      std::span<const VertexId>(starts), config, rng,
      [&graph, p, q](const std::vector<VertexId>& walk, Rng& rng) -> VertexId {
        const VertexId cur = walk.back();
        const auto nbs = graph.OutNeighbors(cur);
        if (nbs.empty()) return kInvalidVertex;
        if (walk.size() < 2) return nbs[rng.Uniform(nbs.size())].dst;
        const VertexId prev = walk[walk.size() - 2];
        // Second-order bias: 1/p to return, 1 to stay in prev's
        // neighborhood, 1/q to move outward.
        std::unordered_set<VertexId> prev_nbs;
        for (const Neighbor& nb : graph.OutNeighbors(prev)) {
          prev_nbs.insert(nb.dst);
        }
        double total = 0;
        for (const Neighbor& nb : nbs) {
          total += nb.dst == prev ? 1.0 / p
                                  : (prev_nbs.count(nb.dst) ? 1.0 : 1.0 / q);
        }
        double r = rng.NextDouble() * total;
        for (const Neighbor& nb : nbs) {
          r -= nb.dst == prev ? 1.0 / p
                              : (prev_nbs.count(nb.dst) ? 1.0 : 1.0 / q);
          if (r <= 0) return nb.dst;
        }
        return nbs.back().dst;
      });
}

std::vector<std::vector<VertexId>> MetapathWalks(
    const AttributedGraph& graph, const WalkConfig& config,
    const std::vector<EdgeType>& metapath,
    const std::vector<VertexId>& start_vertices) {
  if (metapath.empty()) return {};
  Rng rng(config.seed);
  return GenerateWalks(
      std::span<const VertexId>(start_vertices), config, rng,
      [&graph, &metapath](const std::vector<VertexId>& walk,
                          Rng& rng) -> VertexId {
        const EdgeType et = metapath[(walk.size() - 1) % metapath.size()];
        const auto nbs = graph.OutNeighbors(walk.back(), et);
        if (nbs.empty()) return kInvalidVertex;
        return nbs[rng.Uniform(nbs.size())].dst;
      });
}

std::vector<std::vector<VertexId>> LayerWalks(const AttributedGraph& graph,
                                              const WalkConfig& config,
                                              EdgeType layer) {
  // Start only from vertices that carry edges of this layer.
  std::vector<VertexId> starts;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (!graph.OutNeighbors(v, layer).empty()) starts.push_back(v);
  }
  Rng rng(config.seed);
  return GenerateWalks(
      std::span<const VertexId>(starts), config, rng,
      [&graph, layer](const std::vector<VertexId>& walk, Rng& rng) -> VertexId {
        const auto nbs = graph.OutNeighbors(walk.back(), layer);
        if (nbs.empty()) return kInvalidVertex;
        return nbs[rng.Uniform(nbs.size())].dst;
      });
}

}  // namespace nn
}  // namespace aligraph
