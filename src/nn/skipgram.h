/// \file skipgram.h
/// \brief Skip-gram with negative sampling (SGNS) — the training engine
/// behind DeepWalk, Node2Vec, LINE, Metapath2Vec, PMNE, MVE, MNE and the
/// random-walk part of GATNE.

#ifndef ALIGRAPH_NN_SKIPGRAM_H_
#define ALIGRAPH_NN_SKIPGRAM_H_

#include <algorithm>
#include <span>
#include <vector>

#include "nn/layers.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace nn {

/// The skip-gram context window: positions within this distance of a walk's
/// center are its contexts.
inline constexpr size_t kSkipGramWindow = 2;

/// Calls fn(i, j) for every (center, context) position pair of a walk of
/// `length`: i ascending, and for each i every j != i within
/// kSkipGramWindow, ascending.
template <typename Fn>
void ForEachContextPair(size_t length, const Fn& fn) {
  for (size_t i = 0; i < length; ++i) {
    const size_t lo = i > kSkipGramWindow ? i - kSkipGramWindow : 0;
    const size_t hi = std::min(length, i + kSkipGramWindow + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (j != i) fn(i, j);
    }
  }
}

/// The one SGNS update of center vector `h` against row `target` of the
/// context table, the step every skip-gram model takes per target:
///
///   g = scale * (sigmoid(h . c) - label);  dh += g * c;  c -= lr * g * h
///
/// `dh` collects the center's gradient; the caller applies it (after all
/// of a pair's targets, or after each). Returns sigmoid(h . c) before the
/// step.
float SgnsUpdate(std::span<const float> h, EmbeddingTable& context,
                 VertexId target, float label, float lr, std::span<float> dh,
                 float scale = 1.0f);

/// \brief SGNS options.
struct SkipGramConfig {
  size_t dim = 32;
  uint32_t negatives = 4;
  float learning_rate = 0.05f;
  uint32_t epochs = 2;
  uint64_t seed = 6;
};

/// \brief Two-table SGNS model: "in" embeddings are the output
/// representation, "out" embeddings are the context table.
class SkipGramModel {
 public:
  SkipGramModel(size_t num_vertices, const SkipGramConfig& config);

  /// One (center, context) update with negative samples drawn from
  /// `negative_sampler`. Returns the pair's loss.
  float TrainPair(VertexId center, VertexId context,
                  NegativeSampler& negative_sampler);

  /// Trains over a walk corpus with the kSkipGramWindow context window.
  /// Returns the average loss of the final epoch.
  float TrainWalks(const std::vector<std::vector<VertexId>>& walks,
                   NegativeSampler& negative_sampler);

  /// Trains directly on an edge list (LINE first-order style).
  float TrainEdges(const std::vector<std::pair<VertexId, VertexId>>& edges,
                   NegativeSampler& negative_sampler, uint32_t epochs);

  const EmbeddingTable& embeddings() const { return in_; }
  EmbeddingTable& mutable_embeddings() { return in_; }
  const EmbeddingTable& context_embeddings() const { return out_; }
  EmbeddingTable& mutable_context_embeddings() { return out_; }

 private:
  SkipGramConfig config_;
  Rng rng_;
  EmbeddingTable in_;
  EmbeddingTable out_;
  std::vector<float> center_grad_;  // scratch, avoids per-pair allocation
};

}  // namespace nn
}  // namespace aligraph

#endif  // ALIGRAPH_NN_SKIPGRAM_H_
