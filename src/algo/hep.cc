#include "algo/hep.h"

#include <algorithm>

#include "common/random.h"
#include "nn/skipgram.h"
#include "nn/walks.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace algo {
Result<nn::Matrix> Hep::Embed(const AttributedGraph& graph) {
  const VertexId n = graph.num_vertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  Rng rng(config_.seed);
  rows_touched_ = 0;
  propagation_terms_ = 0;

  nn::EmbeddingTable emb(n, config_.dim, rng, 0.05f);
  const size_t num_vtypes = graph.schema().num_vertex_types();
  std::vector<nn::Linear> transforms;  // one per neighbor node type
  transforms.reserve(num_vtypes);
  for (size_t c = 0; c < num_vtypes; ++c) {
    transforms.emplace_back(config_.dim, config_.dim, rng);
    // Near-identity initialization: reconstruction starts as the plain
    // neighbor mean, which converges much faster than a random projection.
    nn::Matrix& w = transforms.back().weight().value;
    for (size_t i = 0; i < config_.dim; ++i) {
      for (size_t j = 0; j < config_.dim; ++j) {
        w.At(i, j) = (i == j) ? 1.0f : w.At(i, j) * 0.1f;
      }
    }
  }
  nn::Sgd opt(config_.learning_rate);

  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.seed + 1);

  // AHEP importance per vertex: degree-proportional sampling minimizes the
  // variance of the mean estimator on power-law neighborhoods.
  std::vector<double> importance(n);
  for (VertexId v = 0; v < n; ++v) {
    importance[v] = static_cast<double>(graph.OutDegree(v) + 1);
  }

  const float lr = config_.learning_rate;
  std::vector<std::vector<VertexId>> by_type(num_vtypes);
  std::vector<VertexId> type_nbs;
  nn::Matrix mean_row(1, config_.dim);
  std::vector<float> dh(config_.dim);

  for (uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (VertexId v = 0; v < n; ++v) {
      const auto nbs = graph.OutNeighbors(v);
      if (nbs.empty()) continue;
      // Bucket neighbors by node type in one pass.
      for (auto& bucket : by_type) bucket.clear();
      for (const Neighbor& nb : nbs) {
        by_type[graph.vertex_type(nb.dst)].push_back(nb.dst);
      }
      for (size_t c = 0; c < num_vtypes; ++c) {
        const std::vector<VertexId>& candidates = by_type[c];
        if (candidates.empty()) continue;
        if (config_.sample_size == 0) {
          // HEP: propagate from every neighbor of this type.
          type_nbs = candidates;
        } else {
          // AHEP: importance-weighted sampling with replacement.
          type_nbs.clear();
          double total = 0;
          for (VertexId u : candidates) total += importance[u];
          for (size_t s = 0; s < config_.sample_size; ++s) {
            double r = rng.NextDouble() * total;
            for (VertexId u : candidates) {
              r -= importance[u];
              if (r <= 0) {
                type_nbs.push_back(u);
                break;
              }
            }
          }
        }
        if (type_nbs.empty()) continue;
        propagation_terms_ += type_nbs.size();
        rows_touched_ += type_nbs.size() + 1;

        // Reconstruction h'_{v,c} = W_c(mean of neighbor embeddings).
        mean_row.Fill(0.0f);
        const float inv = 1.0f / static_cast<float>(type_nbs.size());
        for (VertexId u : type_nbs) {
          nn::Axpy(inv, emb.Row(u), mean_row.Row(0));
        }
        nn::Matrix h_prime = transforms[c].ForwardAt(mean_row);

        // EP loss: pull h' toward h_v, push from negatives.
        std::fill(dh.begin(), dh.end(), 0.0f);
        const auto hp = h_prime.Row(0);
        nn::SgnsUpdate(hp, emb, v, 1.0f, lr, dh, config_.alpha);
        for (VertexId ng : negs.Sample(config_.negatives, v)) {
          nn::SgnsUpdate(hp, emb, ng, 0.0f, lr, dh, config_.alpha);
        }

        // Backprop into the transform and the neighbor mean.
        nn::Matrix dhm(1, config_.dim);
        std::copy(dh.begin(), dh.end(), dhm.Row(0).begin());
        nn::Matrix dmean = transforms[c].BackwardAt(mean_row, dhm);
        for (VertexId u : type_nbs) {
          emb.SgdUpdate(u, dmean.Row(0), lr * inv);
        }
        transforms[c].Apply(opt);
      }
      // L2 regularization on the touched embedding (Equation 2's Omega).
      if (config_.beta > 0) {
        auto row = emb.Row(v);
        for (float& x : row) x *= 1.0f - lr * config_.beta;
      }
    }
  }
  return emb.matrix();
}

}  // namespace algo
}  // namespace aligraph
