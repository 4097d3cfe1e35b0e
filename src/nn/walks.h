/// \file walks.h
/// \brief Random-walk corpus generators: uniform (DeepWalk), biased
/// (Node2Vec p/q) and metapath-constrained (Metapath2Vec) walks.

#ifndef ALIGRAPH_NN_WALKS_H_
#define ALIGRAPH_NN_WALKS_H_

#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"

namespace aligraph {
namespace nn {

/// \brief Walk-corpus options.
struct WalkConfig {
  uint32_t walks_per_vertex = 4;
  uint32_t walk_length = 10;
  uint64_t seed = 5;
};

/// Every vertex id of `graph`, ascending: [0, num_vertices).
std::vector<VertexId> AllVertices(const AttributedGraph& graph);

/// The one walk loop: `config.walks_per_vertex` rounds, each walking once
/// from every start vertex in order. A walk grows by step(walk, rng) until
/// it is `config.walk_length` long or the step returns kInvalidVertex;
/// walks shorter than 2 are dropped. Draws from `rng` (not config.seed), so
/// a caller can continue a stream it has already drawn from.
template <typename StepFn>
std::vector<std::vector<VertexId>> GenerateWalks(
    std::span<const VertexId> starts, const WalkConfig& config, Rng& rng,
    StepFn&& step) {
  std::vector<std::vector<VertexId>> walks;
  walks.reserve(starts.size() * config.walks_per_vertex);
  for (uint32_t w = 0; w < config.walks_per_vertex; ++w) {
    for (VertexId start : starts) {
      std::vector<VertexId> walk;
      walk.reserve(config.walk_length);
      walk.push_back(start);
      while (walk.size() < config.walk_length) {
        const VertexId next = step(walk, rng);
        if (next == kInvalidVertex) break;
        walk.push_back(next);
      }
      if (walk.size() >= 2) walks.push_back(std::move(walk));
    }
  }
  return walks;
}

/// Uniform random walks over the merged adjacency (DeepWalk).
std::vector<std::vector<VertexId>> UniformWalks(const AttributedGraph& graph,
                                                const WalkConfig& config);

/// Node2Vec second-order walks: return weight 1/p, in-neighborhood weight 1,
/// outward weight 1/q.
std::vector<std::vector<VertexId>> Node2VecWalks(const AttributedGraph& graph,
                                                 const WalkConfig& config,
                                                 double p, double q);

/// Metapath-constrained walks: step i follows an edge of type
/// metapath[i % metapath.size()]; walks stop early when no such edge exists.
std::vector<std::vector<VertexId>> MetapathWalks(
    const AttributedGraph& graph, const WalkConfig& config,
    const std::vector<EdgeType>& metapath,
    const std::vector<VertexId>& start_vertices);

/// Walks restricted to edges of a single type (one layer of a multiplex
/// network, as used by PMNE / MNE / GATNE).
std::vector<std::vector<VertexId>> LayerWalks(const AttributedGraph& graph,
                                              const WalkConfig& config,
                                              EdgeType layer);

}  // namespace nn
}  // namespace aligraph

#endif  // ALIGRAPH_NN_WALKS_H_
