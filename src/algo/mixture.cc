#include "algo/mixture.h"

#include <algorithm>
#include <cmath>

#include "nn/skipgram.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace algo {
Result<nn::Matrix> MixtureGnn::Embed(const AttributedGraph& graph) {
  const VertexId n = graph.num_vertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  const size_t S = config_.senses;
  const size_t d = config_.sense_dim;
  Rng rng(config_.seed);

  std::vector<nn::EmbeddingTable> sense;  // per sense, n x d
  for (size_t s = 0; s < S; ++s) sense.emplace_back(n, d, rng, 0.05f);
  nn::EmbeddingTable context(n, d, rng, 0.05f);
  // Sense prior P, per vertex, updated from posterior responsibilities.
  nn::Matrix prior(n, S);
  prior.Fill(1.0f / static_cast<float>(S));

  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.seed + 1);
  const auto walks = nn::UniformWalks(graph, config_.walks);
  const float lr = config_.learning_rate;

  std::vector<float> resp(S), dcenter(d);

  for (uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (const auto& walk : walks) {
      for (size_t i = 0; i + 1 < walk.size(); ++i) {
        const VertexId center = walk[i];
        const VertexId ctx_v = walk[i + 1];
        auto ctx = context.Row(ctx_v);

        // Posterior responsibility of each sense for this context
        // (E step of the lower-bound maximization).
        for (size_t s = 0; s < S; ++s) {
          resp[s] = nn::Dot(sense[s].Row(center), ctx) +
                    std::log(std::max(prior.At(center, s), 1e-6f));
        }
        nn::Softmax(resp);

        // M step: every sense takes a responsibility-weighted SGNS update.
        const auto negatives = negs.Sample(config_.negatives, ctx_v);
        for (size_t s = 0; s < S; ++s) {
          if (resp[s] < 1e-3f) continue;
          auto hs = sense[s].Row(center);
          // The sense row moves after every target, the context update
          // having used its pre-step value.
          auto sgns = [&](VertexId target, float label) {
            std::fill(dcenter.begin(), dcenter.end(), 0.0f);
            nn::SgnsUpdate(hs, context, target, label, lr, dcenter, resp[s]);
            nn::Axpy(-lr, dcenter, hs);
          };
          sgns(ctx_v, 1.0f);
          for (VertexId ng : negatives) sgns(ng, 0.0f);
          // Prior follows the running responsibilities.
          prior.At(center, s) =
              0.99f * prior.At(center, s) + 0.01f * resp[s];
        }
      }
    }
  }

  // Output: concatenated senses.
  nn::Matrix out(n, S * d);
  for (VertexId v = 0; v < n; ++v) {
    auto dst = out.Row(v);
    for (size_t s = 0; s < S; ++s) {
      auto src = sense[s].Row(v);
      std::copy(src.begin(), src.end(), dst.begin() + s * d);
    }
  }
  return out;
}

InteractionAutoencoder::InteractionAutoencoder(size_t num_items,
                                               Config config)
    : config_(config),
      num_items_(num_items),
      rng_(config.seed),
      encoder_(num_items, config.hidden, rng_),
      enc_logvar_(num_items, config.hidden, rng_),
      decoder_(config.hidden, num_items, rng_) {}

void InteractionAutoencoder::Train(
    const std::vector<std::vector<uint32_t>>& user_items) {
  nn::Sgd opt(config_.learning_rate);
  nn::Matrix x(1, num_items_);
  nn::Matrix eps(1, config_.hidden);

  for (uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (const auto& items : user_items) {
      if (items.empty()) continue;
      // Input: multi-hot, DAE-corrupted by dropout.
      x.Fill(0.0f);
      for (uint32_t it : items) {
        if (config_.variational || !rng_.Bernoulli(config_.corruption)) {
          x.At(0, it) = 1.0f;
        }
      }
      nn::Matrix mu = encoder_.ForwardAt(x);
      nn::TanhInPlace(mu);
      const nn::Matrix mu_act = mu;

      nn::Matrix z = mu_act;
      nn::Matrix logvar;
      if (config_.variational) {
        logvar = enc_logvar_.ForwardAt(x);
        for (size_t j = 0; j < config_.hidden; ++j) {
          const float sigma = std::exp(0.5f * logvar.At(0, j));
          eps.At(0, j) = static_cast<float>(rng_.NextGaussian());
          z.At(0, j) += sigma * eps.At(0, j);
        }
      }

      nn::Matrix logits = decoder_.ForwardAt(z);
      // Multi-hot BCE against the uncorrupted interactions.
      nn::Matrix dlogits(1, num_items_);
      for (size_t j = 0; j < num_items_; ++j) {
        const float label =
            std::find(items.begin(), items.end(), j) != items.end() ? 1.0f
                                                                    : 0.0f;
        dlogits.At(0, j) =
            (nn::Sigmoid(logits.At(0, j)) - label) / num_items_;
      }
      nn::Matrix dz = decoder_.BackwardAt(z, dlogits);

      if (config_.variational) {
        // KL(N(mu, sigma) || N(0,1)) gradients: dmu += beta*mu,
        // dlogvar += beta*0.5*(exp(logvar)-1), plus the sampling path.
        nn::Matrix dlogvar(1, config_.hidden);
        for (size_t j = 0; j < config_.hidden; ++j) {
          const float sigma = std::exp(0.5f * logvar.At(0, j));
          dlogvar.At(0, j) =
              dz.At(0, j) * eps.At(0, j) * 0.5f * sigma +
              config_.beta * 0.5f * (std::exp(logvar.At(0, j)) - 1.0f);
          dz.At(0, j) += config_.beta * mu_act.At(0, j);
        }
        enc_logvar_.BackwardAt(x, dlogvar);
        enc_logvar_.Apply(opt);
      }

      encoder_.BackwardAt(x, nn::TanhBackward(mu_act, dz));
      encoder_.Apply(opt);
      decoder_.Apply(opt);
    }
  }
}

std::vector<float> InteractionAutoencoder::Score(
    const std::vector<uint32_t>& user_items) {
  nn::Matrix x(1, num_items_);
  for (uint32_t it : user_items) x.At(0, it) = 1.0f;
  nn::Matrix mu = encoder_.ForwardAt(x);
  nn::TanhInPlace(mu);
  nn::Matrix logits = decoder_.ForwardAt(mu);
  std::vector<float> out(num_items_);
  for (size_t j = 0; j < num_items_; ++j) out[j] = logits.At(0, j);
  return out;
}

}  // namespace algo
}  // namespace aligraph
