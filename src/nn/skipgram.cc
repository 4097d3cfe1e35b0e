#include "nn/skipgram.h"

#include <algorithm>
#include <cmath>

namespace aligraph {
namespace nn {
SkipGramModel::SkipGramModel(size_t num_vertices,
                             const SkipGramConfig& config)
    : config_(config),
      rng_(config.seed),
      in_(num_vertices, config.dim, rng_),
      out_(num_vertices, config.dim, rng_),
      center_grad_(config.dim, 0.0f) {}

float SgnsUpdate(std::span<const float> h, EmbeddingTable& context,
                 VertexId target, float label, float lr, std::span<float> dh,
                 float scale) {
  auto c = context.Row(target);
  const float p = Sigmoid(Dot(h, c));
  const float g = scale * (p - label);
  Axpy(g, c, dh);
  context.SgdUpdate(target, h, lr * g);
  return p;
}

float SkipGramModel::TrainPair(VertexId center, VertexId context,
                               NegativeSampler& negative_sampler) {
  const std::vector<VertexId> negatives =
      negative_sampler.Sample(config_.negatives, context);
  auto h = in_.Row(center);
  std::fill(center_grad_.begin(), center_grad_.end(), 0.0f);
  const float lr = config_.learning_rate;
  float loss = 0;
  const float p = SgnsUpdate(h, out_, context, 1.0f, lr, center_grad_);
  loss -= std::log(std::max(p, 1e-7f));
  for (VertexId neg : negatives) {
    const float q = SgnsUpdate(h, out_, neg, 0.0f, lr, center_grad_);
    loss -= std::log(std::max(1.0f - q, 1e-7f));
  }
  // The center moves once, after all of the pair's targets.
  in_.SgdUpdate(center, center_grad_, lr);
  return loss / static_cast<float>(1 + negatives.size());
}

float SkipGramModel::TrainWalks(
    const std::vector<std::vector<VertexId>>& walks,
    NegativeSampler& negative_sampler) {
  float last_epoch_loss = 0;
  for (uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    double loss = 0;
    size_t pairs = 0;
    for (const auto& walk : walks) {
      ForEachContextPair(walk.size(), [&](size_t i, size_t j) {
        loss += TrainPair(walk[i], walk[j], negative_sampler);
        ++pairs;
      });
    }
    last_epoch_loss =
        pairs == 0 ? 0.0f : static_cast<float>(loss / static_cast<double>(pairs));
  }
  return last_epoch_loss;
}

float SkipGramModel::TrainEdges(
    const std::vector<std::pair<VertexId, VertexId>>& edges,
    NegativeSampler& negative_sampler, uint32_t epochs) {
  float last = 0;
  for (uint32_t e = 0; e < epochs; ++e) {
    double loss = 0;
    for (const auto& [u, v] : edges) {
      loss += TrainPair(u, v, negative_sampler);
    }
    last = edges.empty()
               ? 0.0f
               : static_cast<float>(loss / static_cast<double>(edges.size()));
  }
  return last;
}

}  // namespace nn
}  // namespace aligraph
