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

float SkipGramModel::SgnsUpdate(VertexId center, VertexId context,
                                std::span<const VertexId> negatives) {
  auto h = in_.Row(center);
  std::fill(center_grad_.begin(), center_grad_.end(), 0.0f);
  float loss = 0;
  const float lr = config_.learning_rate;

  auto update_one = [&](VertexId target, float label) {
    auto ctx = out_.Row(target);
    const float score = Dot(h, ctx);
    const float p = Sigmoid(score);
    loss += label > 0.5f ? -std::log(std::max(p, 1e-7f))
                         : -std::log(std::max(1.0f - p, 1e-7f));
    const float g = p - label;  // dLoss/dscore
    // Defer the center update until all targets are processed.
    Axpy(g, ctx, center_grad_);
    out_.SgdUpdate(target, h, lr * g);
  };

  update_one(context, 1.0f);
  for (VertexId neg : negatives) update_one(neg, 0.0f);
  in_.SgdUpdate(center, center_grad_, lr);
  return loss / static_cast<float>(1 + negatives.size());
}

float SkipGramModel::TrainPair(VertexId center, VertexId context,
                               NegativeSampler& negative_sampler) {
  const std::vector<VertexId> negs =
      negative_sampler.Sample(config_.negatives, context);
  return SgnsUpdate(center, context, negs);
}

float SkipGramModel::TrainWalks(
    const std::vector<std::vector<VertexId>>& walks,
    NegativeSampler& negative_sampler) {
  float last_epoch_loss = 0;
  for (uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    double loss = 0;
    size_t pairs = 0;
    for (const auto& walk : walks) {
      for (size_t i = 0; i < walk.size(); ++i) {
        const size_t lo = i > config_.window ? i - config_.window : 0;
        const size_t hi = std::min(walk.size(), i + config_.window + 1);
        for (size_t j = lo; j < hi; ++j) {
          if (j == i) continue;
          loss += TrainPair(walk[i], walk[j], negative_sampler);
          ++pairs;
        }
      }
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
