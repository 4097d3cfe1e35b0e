/// \file gatne.h
/// \brief GATNE — General Attributed Multiplex HeTerogeneous Network
/// Embedding (Section 4.2).
///
/// The per-edge-type embedding of vertex v is (Equation 3)
///
///   h_{v,c} = b_v + alpha_c * M_c^T (U_v a_c) + beta_c * D^T x_v
///
/// with b_v the general (base) embedding, U_v the stack of per-edge-type
/// specific embeddings u_{v,t}, a_c a self-attention over those types, M_c a
/// per-type transformation, x_v the attribute vector and D a shared
/// attribute transformation. Training is random-walk SGNS per edge type
/// (Equation 4) with gradients flowing into every component including the
/// attention parameters.

#ifndef ALIGRAPH_ALGO_GATNE_H_
#define ALIGRAPH_ALGO_GATNE_H_

#include <vector>

#include "algo/embedding_algorithm.h"
#include "nn/layers.h"
#include "nn/walks.h"

namespace aligraph {
namespace algo {

/// \brief The GATNE model.
class Gatne : public EmbeddingAlgorithm {
 public:
  struct Config {
    size_t dim = 32;        ///< base / output dimension d
    size_t spec_dim = 8;    ///< specific embedding dimension s
    size_t att_dim = 8;     ///< attention hidden dimension a
    size_t feature_dim = 16;
    float alpha = 1.0f;     ///< specific-embedding coefficient
    float beta = 0.5f;      ///< attribute-embedding coefficient
    nn::WalkConfig walks;
    uint32_t negatives = 4;
    uint32_t epochs = 2;
    float learning_rate = 0.05f;
    uint64_t seed = 43;
  };

  Gatne() = default;
  explicit Gatne(Config config) : config_(std::move(config)) {}
  std::string name() const override { return "gatne"; }

  /// Primary embedding: the mean of the per-type embeddings h_{v,c}.
  Result<nn::Matrix> Embed(const AttributedGraph& graph) override;

  /// Per-edge-type embeddings h_{v,c} of the last Embed run.
  const std::vector<nn::Matrix>& per_type_embeddings() const {
    return per_type_;
  }

 private:
  Config config_;
  std::vector<nn::Matrix> per_type_;
};

}  // namespace algo
}  // namespace aligraph

#endif  // ALIGRAPH_ALGO_GATNE_H_
