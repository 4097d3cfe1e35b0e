/// \file gnn.h
/// \brief The GNN framework of Algorithm 1 and its classic instantiations:
/// GraphSAGE (mini-batch, sampled neighborhoods), GCN (full-batch), FastGCN
/// (independent layer-wise importance sampling), AS-GCN (adaptive layer-wise
/// sampling conditioned on the batch) and a structural-identity baseline
/// (Struc2Vec, simplified).
///
/// All models train unsupervised with the edge-based objective of the
/// GraphSAGE paper: connected pairs score high, sampled negatives score low;
/// GraphSAGE and the GCNs take its gradient from one pair-gradient step.
///
/// GraphSAGE's compute has one definition, SageStack: SageTrainer's
/// training and Infer run it, and so does serve::ServeEngine for every
/// request, so a change to the model's compute is made there once.

#ifndef ALIGRAPH_ALGO_GNN_H_
#define ALIGRAPH_ALGO_GNN_H_

#include <string>
#include <vector>

#include "algo/embedding_algorithm.h"
#include "block/sampled_block.h"
#include "nn/layers.h"
#include "nn/skipgram.h"
#include "nn/walks.h"
#include "pipeline/block_pipeline.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace algo {

/// \brief Shared hyper-parameters of the GNN family.
struct GnnConfig {
  size_t dim = 32;            ///< embedding dimension d
  size_t feature_dim = 32;    ///< input feature dimension
  uint32_t fanout1 = 5;       ///< neighbors sampled at hop 1
  uint32_t fanout2 = 5;       ///< neighbors sampled at hop 2
  uint32_t epochs = 1;
  size_t batch_size = 64;
  size_t batches_per_epoch = 64;
  uint32_t negatives = 2;
  float learning_rate = 0.01f;
  std::string aggregator = "mean";  ///< "mean" or "maxpool"
  uint64_t seed = 31;
  /// Stage-queue depth of the pipeline::BlockPipeline that drives GraphSAGE
  /// training and inference (sample -> gather -> compute over
  /// block::SampledBlock, features gathered once per unique vertex of the
  /// batch). 0 runs the three stages inline on the caller's thread, batch
  /// after batch, and a SageTrainer starts no thread; >= 1 gives the
  /// trainer two lane threads for its lifetime and overlaps batch N+1's hop
  /// sampling with batch N's feature gather and batch N-1's
  /// forward/backward. Every stage stays single-threaded and in batch
  /// order, so results are bit-identical across depths; only wall-clock and
  /// the (bounded) number of in-flight blocks change.
  size_t pipeline_depth = 0;
};

/// InvalidArgument unless `aggregator` is one SageLayer runs: "mean" or
/// "maxpool".
Status CheckAggregator(const std::string& aggregator);

/// \brief One GraphSAGE layer h' = ReLU(W [self || AGG(neigh)] + b), where
/// AGG is the element-wise mean or max-pool: the operator layer's AGGREGATE
/// and COMBINE (Section 3.4) with their backward pass. An explicit cache
/// lets the same layer be applied at several tree levels within one
/// training step.
class SageLayer {
 public:
  /// \param relu apply ReLU to the output. The top layer of a stack should
  ///        pass false: a ReLU there collapses the unsupervised edge
  ///        objective into dead units (scores need both signs).
  SageLayer(size_t in_dim, size_t out_dim, bool maxpool, Rng& rng,
            bool relu = true)
      : linear_(2 * in_dim, out_dim, rng), in_dim_(in_dim),
        maxpool_(maxpool), relu_(relu) {}

  struct Cache {
    nn::Matrix input;             // [n, 2*in_dim] concat(self, agg)
    nn::Matrix output;            // [n, out_dim] post-ReLU
    std::vector<uint32_t> argmax;  // maxpool: winning fan slot per [n, in_dim]
    size_t fan = 1;
  };

  /// neighbors is [n*fan, in_dim]; self is [n, in_dim]. Returns the
  /// layer's output, held in cache->output: valid while the cache is.
  const nn::Matrix& Forward(const nn::Matrix& self,
                            const nn::Matrix& neighbors, size_t fan,
                            Cache* cache) const;

  /// Block forward: `rows` is a block's dense [num_vertices, in_dim]
  /// per-unique-vertex matrix; self rows come from hop.dst, neighbor rows
  /// from the hop CSR, with no per-slot materialization of the neighbor
  /// matrix. Fills `cache` exactly like Forward (same input / output /
  /// argmax bits), so Backward serves both paths unchanged, and returns
  /// cache->output as Forward does.
  const nn::Matrix& ForwardBlock(const nn::Matrix& rows,
                                 const block::BlockHop& hop,
                                 Cache* cache) const;

  /// Returns (dSelf, dNeighbors).
  std::pair<nn::Matrix, nn::Matrix> Backward(const Cache& cache,
                                             const nn::Matrix& grad_out);

  void Apply(nn::Optimizer& opt) { linear_.Apply(opt); }
  size_t out_dim() const { return linear_.out_dim(); }

 private:
  // The one AGGREGATE + COMBINE body behind Forward and ForwardBlock: row i
  // aggregates self_row(i) with neighbor_row(i * fan + f) for f < fan.
  template <typename SelfRow, typename NeighborRow>
  const nn::Matrix& ForwardRows(size_t n, size_t fan, const SelfRow& self_row,
                                const NeighborRow& neighbor_row,
                                Cache* cache) const;

  nn::Linear linear_;
  size_t in_dim_;
  bool maxpool_;
  bool relu_;
};

/// \brief The two-layer GraphSAGE stack over a 2-hop block::SampledBlock:
/// the one definition of the model's compute, run by SageTrainer's training
/// and Infer and by serve::ServeEngine's requests. Layer 1 (ReLU) embeds
/// the roots (hop 0) and their sampled neighbors (hop 1) from the block's
/// gathered rows; layer 2 (no ReLU) combines them into the roots'
/// embeddings.
class SageStack {
 public:
  /// Draws layer 1's weights, then layer 2's, from `rng`.
  SageStack(size_t feature_dim, size_t dim, bool maxpool, Rng& rng);

  /// What Backward needs of one Forward.
  struct Cache {
    SageLayer::Cache roots, hop1, top;
  };

  /// The roots' [num roots, dim] embeddings, unnormalized, from `x`, the
  /// block's [num_vertices, feature_dim] gathered rows. Fills `cache` and
  /// returns cache->top.output, valid while the cache is.
  const nn::Matrix& Forward(const block::SampledBlock& blk,
                            const nn::Matrix& x, Cache* cache) const;

  /// Backward of a Forward from the gradient on its output: accumulates
  /// both layers' weight gradients.
  void Backward(const Cache& cache, const nn::Matrix& grad);

  /// Applies `opt` to layer 1, then layer 2, and clears their gradients.
  void Apply(nn::Optimizer& opt);

  /// Forward, then row-wise L2 normalization: the embedding Infer and
  /// serving return. Const and stateless, so threads may call it at once.
  nn::Matrix Embed(const block::SampledBlock& blk, const nn::Matrix& x) const;

 private:
  SageLayer layer1_;
  SageLayer layer2_;
};

/// \brief Reusable GraphSAGE trainer over one SageStack whose weights
/// persist across calls — the building block of GraphSage itself and of
/// models that train over a sequence of graphs (Evolving GNN warm-starts
/// every snapshot from the previous one's weights). It holds one
/// pipeline::BlockPipeline of depth `pipeline_depth`, built with the
/// trainer, that every TrainEpochs and Infer call runs on.
class SageTrainer {
 public:
  SageTrainer(const GnnConfig& config, size_t feature_dim);

  /// Runs `epochs` epochs of unsupervised edge-loss training. Batch
  /// drawing + hop sampling is the pipeline's sample stage, the feature
  /// gather its gather stage, and forward/backward/apply its compute stage
  /// (always the caller's thread).
  void TrainEpochs(const AttributedGraph& graph, const nn::Matrix& features,
                   uint32_t epochs);

  /// Embeds every vertex with one deterministic sampled pass, through the
  /// same pipeline stages as TrainEpochs.
  nn::Matrix Infer(const AttributedGraph& graph, const nn::Matrix& features);

 private:
  GnnConfig config_;
  Rng rng_;  // the stack's weights, then every batch draw
  SageStack stack_;
  nn::Adam opt_;
  // Declared last, so its lanes are joined before the members their stage
  // bodies touch are destroyed.
  pipeline::BlockPipeline pipeline_;
};

/// \brief Two-layer GraphSAGE with node-wise neighbor sampling.
class GraphSage : public EmbeddingAlgorithm {
 public:
  GraphSage() = default;
  explicit GraphSage(GnnConfig config) : config_(std::move(config)) {}
  std::string name() const override { return "graphsage"; }
  Result<nn::Matrix> Embed(const AttributedGraph& graph) override;

  /// Embeds with externally supplied initial features (used by models that
  /// stack GraphSAGE, e.g. Evolving GNN warm starts).
  Result<nn::Matrix> EmbedWithFeatures(const AttributedGraph& graph,
                                       const nn::Matrix& features);

 private:
  GnnConfig config_;
};

/// \brief Propagation mode of the convolutional family.
enum class GcnMode {
  kFull,     ///< exact full-batch propagation (GCN)
  kFastGcn,  ///< layer-wise independent importance sampling
  kAsGcn,    ///< layer-wise sampling restricted to the batch's neighborhood
};

/// \brief Two-layer graph convolutional network over the row-normalized
/// adjacency with self-loops.
class Gcn : public EmbeddingAlgorithm {
 public:
  struct Config {
    GnnConfig base;
    GcnMode mode = GcnMode::kFull;
    size_t layer_samples = 128;  ///< sampled support per layer (Fast/AS)
  };

  Gcn() = default;
  explicit Gcn(Config config) : config_(std::move(config)) {}
  std::string name() const override;
  Result<nn::Matrix> Embed(const AttributedGraph& graph) override;

 private:
  Config config_;
};

/// \brief Simplified Struc2Vec: vertices walk over a structural-similarity
/// neighbor list (nearest by k-hop degree signature among sampled
/// candidates), then SGNS. Captures structural identity rather than
/// proximity. Candidate scan is O(n * candidates) — authentically the
/// slowest baseline, as in the paper's Table 7.
class Struc2Vec : public EmbeddingAlgorithm {
 public:
  struct Config {
    nn::SkipGramConfig sgns;
    nn::WalkConfig walks;
    size_t candidates = 256;  ///< candidate sample per vertex
    size_t similar_k = 8;     ///< structural neighbor list size
  };

  Struc2Vec() = default;
  explicit Struc2Vec(Config config) : config_(std::move(config)) {}
  std::string name() const override { return "struc2vec"; }
  Result<nn::Matrix> Embed(const AttributedGraph& graph) override;

 private:
  Config config_;
};

}  // namespace algo
}  // namespace aligraph

#endif  // ALIGRAPH_ALGO_GNN_H_
