#include "algo/classic.h"

namespace aligraph {
namespace algo {
namespace {

std::vector<std::pair<VertexId, VertexId>> AllEdges(
    const AttributedGraph& graph) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const Neighbor& nb : graph.OutNeighbors(v)) {
      edges.emplace_back(v, nb.dst);
    }
  }
  return edges;
}

}  // namespace

Result<nn::Matrix> DeepWalk::Embed(const AttributedGraph& graph) {
  if (graph.num_vertices() == 0) return Status::InvalidArgument("empty graph");
  const auto walks = nn::UniformWalks(graph, config_.walks);
  nn::SkipGramModel model(graph.num_vertices(), config_.sgns);
  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.sgns.seed);
  model.TrainWalks(walks, negs);
  return model.embeddings().matrix();
}

Result<nn::Matrix> Node2Vec::Embed(const AttributedGraph& graph) {
  if (graph.num_vertices() == 0) return Status::InvalidArgument("empty graph");
  const auto walks =
      nn::Node2VecWalks(graph, config_.walks, config_.p, config_.q);
  nn::SkipGramModel model(graph.num_vertices(), config_.sgns);
  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.sgns.seed);
  model.TrainWalks(walks, negs);
  return model.embeddings().matrix();
}

Result<nn::Matrix> Line::Embed(const AttributedGraph& graph) {
  if (graph.num_vertices() == 0) return Status::InvalidArgument("empty graph");
  const auto edges = AllEdges(graph);
  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.seed);

  // First-order: symmetric SGNS directly on edges.
  nn::SkipGramConfig first;
  first.dim = config_.dim / 2;
  first.negatives = config_.negatives;
  first.learning_rate = config_.learning_rate;
  first.seed = config_.seed;
  nn::SkipGramModel order1(graph.num_vertices(), first);
  order1.TrainEdges(edges, negs, config_.epochs);

  // Second-order: the context table plays the role of LINE's "context"
  // vectors; training is the same SGNS but we keep a separate model so the
  // two proximities stay independent, then concatenate.
  nn::SkipGramConfig second = first;
  second.seed = config_.seed + 1;
  nn::SkipGramModel order2(graph.num_vertices(), second);
  // LINE-2nd samples edges proportionally to weight; our edges are
  // unweighted duplicates, so direct epochs over the list are equivalent.
  order2.TrainEdges(edges, negs, config_.epochs);

  return nn::ConcatCols(order1.embeddings().matrix(),
                        order2.context_embeddings().matrix());
}

}  // namespace algo
}  // namespace aligraph
