#include "algo/gnn.h"

#include <algorithm>
#include <any>
#include <array>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "block/feature_source.h"
#include "block/scaled_csr.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "pipeline/block_pipeline.h"

namespace aligraph {
namespace algo {
namespace {

nn::Matrix MeanAggBackward(const nn::Matrix& grad, size_t fan) {
  nn::Matrix out(grad.rows() * fan, grad.cols());
  const float inv = 1.0f / static_cast<float>(fan);
  for (size_t i = 0; i < grad.rows(); ++i) {
    auto src = grad.Row(i);
    for (size_t f = 0; f < fan; ++f) nn::Axpy(inv, src, out.Row(i * fan + f));
  }
  return out;
}

// One training batch's edge sample: the root list plus the positive /
// negative pair index lists into it. Drawn on the pipeline's sample stage
// and handed to the compute stage as the batch's payload.
struct EdgeBatch {
  std::vector<VertexId> roots;
  std::vector<std::pair<size_t, size_t>> pos;  // index into roots
  std::vector<std::pair<size_t, size_t>> neg;
};

// Positive pairs from random edges; `k` negatives per pair. The guard bounds
// the retries on graphs dominated by sink vertices.
EdgeBatch DrawEdgeBatch(const AttributedGraph& graph,
                        const std::vector<VertexId>& all, Rng& rng,
                        NegativeSampler& negatives, size_t B, uint32_t k) {
  EdgeBatch eb;
  eb.roots.reserve(B * (2 + k));
  size_t made = 0;
  size_t guard = 0;
  while (made < B && guard < B * 16 + 64) {
    ++guard;
    const VertexId u = all[rng.Uniform(all.size())];
    const auto nbs = graph.OutNeighbors(u);
    if (nbs.empty()) continue;
    const VertexId v = nbs[rng.Uniform(nbs.size())].dst;
    const size_t iu = eb.roots.size();
    eb.roots.push_back(u);
    const size_t iv = eb.roots.size();
    eb.roots.push_back(v);
    eb.pos.emplace_back(iu, iv);
    for (VertexId ng : negatives.Sample(k, v)) {
      eb.neg.emplace_back(iu, eb.roots.size());
      eb.roots.push_back(ng);
    }
    ++made;
  }
  return eb;
}

// The edge objective's gradient for one pair (a, b) of rows of `h`:
// g = (sigmoid(h_a . h_b) - label) / denom into both rows of `dh`, so
// connected pairs are pulled toward score 1 and negatives toward 0.
void PairGrad(const nn::Matrix& h, size_t a, size_t b, float label,
              float denom, nn::Matrix& dh) {
  const float g = (nn::Sigmoid(nn::Dot(h.Row(a), h.Row(b))) - label) / denom;
  nn::Axpy(g, h.Row(b), dh.Row(a));
  nn::Axpy(g, h.Row(a), dh.Row(b));
}

// Edge loss gradient on the root embeddings, normalized by the total pair
// count.
nn::Matrix EdgeLossGrad(const nn::Matrix& h2, const EdgeBatch& eb) {
  nn::Matrix dh2(h2.rows(), h2.cols());
  const float denom = static_cast<float>(eb.pos.size() + eb.neg.size());
  for (const auto& [a, b] : eb.pos) PairGrad(h2, a, b, 1.0f, denom, dh2);
  for (const auto& [a, b] : eb.neg) PairGrad(h2, a, b, 0.0f, denom, dh2);
  return dh2;
}

}  // namespace

Status CheckAggregator(const std::string& aggregator) {
  if (aggregator == "mean" || aggregator == "maxpool") return Status::OK();
  return Status::InvalidArgument("unknown aggregator: " + aggregator);
}

// Row i of the layer input is self_row(i) followed by the aggregate of
// neighbor_row(i * fan + f), f ascending. The mean adds inv * row into +0
// edge by edge; the maxpool keeps, per column, the first strict maximum and
// its fan slot. Both are written straight into the input, with the adds in
// the order a separate aggregate matrix joined by ConcatCols would use, so
// the bits are the same.
template <typename SelfRow, typename NeighborRow>
const nn::Matrix& SageLayer::ForwardRows(size_t n, size_t fan,
                                         const SelfRow& self_row,
                                         const NeighborRow& neighbor_row,
                                         Cache* cache) const {
  ALIGRAPH_CHECK(!maxpool_ || fan > 0) << "maxpool needs a neighbor per row";
  const size_t d = in_dim_;
  cache->input = nn::Matrix(n, 2 * d);
  cache->fan = fan;
  if (maxpool_) cache->argmax.assign(n * d, 0);
  const float inv = 1.0f / static_cast<float>(fan);
  for (size_t i = 0; i < n; ++i) {
    const auto row = cache->input.Row(i);
    const auto own = self_row(i);
    std::copy(own.begin(), own.end(), row.begin());
    const auto agg = row.subspan(d);
    if (!maxpool_) {
      for (size_t f = 0; f < fan; ++f) {
        nn::Axpy(inv, neighbor_row(i * fan + f), agg);
      }
      continue;
    }
    const auto first = neighbor_row(i * fan);
    std::copy(first.begin(), first.end(), agg.begin());
    uint32_t* winner = cache->argmax.data() + i * d;
    for (size_t f = 1; f < fan; ++f) {
      const auto src = neighbor_row(i * fan + f);
      for (size_t j = 0; j < d; ++j) {
        if (src[j] > agg[j]) {
          agg[j] = src[j];
          winner[j] = static_cast<uint32_t>(f);
        }
      }
    }
  }
  cache->output = linear_.ForwardAt(cache->input);
  if (relu_) nn::ReluInPlace(cache->output);
  return cache->output;
}

const nn::Matrix& SageLayer::Forward(const nn::Matrix& self,
                                     const nn::Matrix& neighbors, size_t fan,
                                     Cache* cache) const {
  ALIGRAPH_CHECK_EQ(self.cols(), in_dim_);
  ALIGRAPH_CHECK_EQ(neighbors.cols(), in_dim_);
  ALIGRAPH_CHECK_EQ(neighbors.rows(), self.rows() * fan);
  return ForwardRows(
      self.rows(), fan, [&](size_t i) { return self.Row(i); },
      [&](size_t e) { return neighbors.Row(e); }, cache);
}

const nn::Matrix& SageLayer::ForwardBlock(const nn::Matrix& rows,
                                          const block::BlockHop& hop,
                                          Cache* cache) const {
  ALIGRAPH_CHECK_EQ(rows.cols(), in_dim_);
  // Build lays every hop out with stride fan: edge e of dst i is
  // i * fan + f.
  return ForwardRows(
      hop.num_dst(), hop.fan, [&](size_t i) { return rows.Row(hop.dst[i]); },
      [&](size_t e) { return rows.Row(hop.src[e]); }, cache);
}

std::pair<nn::Matrix, nn::Matrix> SageLayer::Backward(
    const Cache& cache, const nn::Matrix& grad_out) {
  const nn::Matrix relu_grad =
      relu_ ? nn::ReluBackward(cache.output, grad_out) : grad_out;
  const nn::Matrix dinput = linear_.BackwardAt(cache.input, relu_grad);
  const size_t n = dinput.rows();
  nn::Matrix dself(n, in_dim_);
  nn::Matrix dagg(n, in_dim_);
  for (size_t i = 0; i < n; ++i) {
    auto src = dinput.Row(i);
    auto s = dself.Row(i);
    auto a = dagg.Row(i);
    for (size_t j = 0; j < in_dim_; ++j) {
      s[j] = src[j];
      a[j] = src[in_dim_ + j];
    }
  }
  nn::Matrix dneigh;
  if (maxpool_) {
    dneigh = nn::Matrix(n * cache.fan, in_dim_);
    for (size_t i = 0; i < n; ++i) {
      auto src = dagg.Row(i);
      for (size_t j = 0; j < in_dim_; ++j) {
        dneigh.At(i * cache.fan + cache.argmax[i * in_dim_ + j], j) = src[j];
      }
    }
  } else {
    dneigh = MeanAggBackward(dagg, cache.fan);
  }
  return {std::move(dself), std::move(dneigh)};
}

SageStack::SageStack(size_t feature_dim, size_t dim, bool maxpool, Rng& rng)
    : layer1_(feature_dim, dim, maxpool, rng),
      layer2_(dim, dim, maxpool, rng, /*relu=*/false) {}

const nn::Matrix& SageStack::Forward(const block::SampledBlock& blk,
                                     const nn::Matrix& x,
                                     Cache* cache) const {
  const nn::Matrix& h1_roots =
      layer1_.ForwardBlock(x, blk.hops()[0], &cache->roots);
  const nn::Matrix& h1_hop1 =
      layer1_.ForwardBlock(x, blk.hops()[1], &cache->hop1);
  return layer2_.Forward(h1_roots, h1_hop1, blk.hops()[0].fan, &cache->top);
}

void SageStack::Backward(const Cache& cache, const nn::Matrix& grad) {
  auto [dh1_roots, dh1_hop1] = layer2_.Backward(cache.top, grad);
  layer1_.Backward(cache.roots, dh1_roots);
  layer1_.Backward(cache.hop1, dh1_hop1);
}

void SageStack::Apply(nn::Optimizer& opt) {
  layer1_.Apply(opt);
  layer2_.Apply(opt);
}

nn::Matrix SageStack::Embed(const block::SampledBlock& blk,
                            const nn::Matrix& x) const {
  Cache cache;
  Forward(blk, x, &cache);
  nn::Matrix h = std::move(cache.top.output);
  nn::L2NormalizeRows(h);
  return h;
}

Result<nn::Matrix> GraphSage::Embed(const AttributedGraph& graph) {
  const nn::Matrix features =
      BuildFeatureMatrix(graph, config_.feature_dim);
  return EmbedWithFeatures(graph, features);
}

SageTrainer::SageTrainer(const GnnConfig& config, size_t feature_dim)
    : config_(config),
      rng_(config.seed),
      stack_(feature_dim, config.dim, config.aggregator == "maxpool", rng_),
      opt_(config.learning_rate),
      pipeline_(config.pipeline_depth) {}

void SageTrainer::TrainEpochs(const AttributedGraph& graph,
                              const nn::Matrix& features, uint32_t epochs) {
  const std::vector<VertexId> all = nn::AllVertices(graph);
  NegativeSampler negatives(graph, all, 0.75, config_.seed + 2);
  NeighborhoodSampler hood(NeighborStrategy::kUniform, config_.seed + 3);
  LocalNeighborSource source(graph);
  block::MatrixFeatureSource feature_source(features);

  const std::vector<uint32_t> fans{config_.fanout1, config_.fanout2};
  const size_t B = config_.batch_size;
  const uint32_t k = config_.negatives;
  const size_t num_batches =
      static_cast<size_t>(epochs) * config_.batches_per_epoch;

  // Stage state partitioning keeps every stateful participant single-stage
  // (hence single-threaded and in batch order, hence bit-identical at every
  // depth): rng_ / negatives / hood live on the sample stage, feature_source
  // on the gather stage, the stack / optimizer on this thread.
  pipeline_.RunStages(
      num_batches,
      /*sample=*/
      [&](size_t, block::SampledBlock* blk, std::any* user) {
        EdgeBatch eb = DrawEdgeBatch(graph, all, rng_, negatives, B, k);
        *blk = hood.SampleBlock(source, eb.roots,
                                NeighborhoodSampler::kAllEdgeTypes, fans);
        *user = std::move(eb);
      },
      /*gather=*/
      [&](const block::SampledBlock& blk) {
        return block::GatherBlockFeatures(blk, feature_source,
                                          /*row_cache=*/nullptr);
      },
      /*compute=*/
      [&](size_t, const block::SampledBlock& blk, const nn::Matrix& x,
          std::any& user) {
        const EdgeBatch& eb = std::any_cast<const EdgeBatch&>(user);
        if (eb.roots.empty()) return;  // every draw hit a sink vertex
        SageStack::Cache cache;
        const nn::Matrix& h2 = stack_.Forward(blk, x, &cache);
        stack_.Backward(cache, EdgeLossGrad(h2, eb));
        stack_.Apply(opt_);
      });
}

nn::Matrix SageTrainer::Infer(const AttributedGraph& graph,
                              const nn::Matrix& features) {
  LocalNeighborSource source(graph);
  const std::vector<uint32_t> fans{config_.fanout1, config_.fanout2};

  // Inference: one deterministic sampled pass over all vertices, chunked.
  nn::Matrix out(graph.num_vertices(), config_.dim);
  NeighborhoodSampler infer_hood(NeighborStrategy::kUniform, config_.seed + 7);
  block::MatrixFeatureSource feature_source(features);
  const size_t chunk = 512;
  const size_t num_batches =
      (static_cast<size_t>(graph.num_vertices()) + chunk - 1) / chunk;

  pipeline_.RunStages(
      num_batches,
      /*sample=*/
      [&](size_t b, block::SampledBlock* blk, std::any*) {
        const VertexId begin = static_cast<VertexId>(b * chunk);
        const VertexId end =
            std::min<VertexId>(begin + chunk, graph.num_vertices());
        std::vector<VertexId> roots(end - begin);
        std::iota(roots.begin(), roots.end(), begin);
        *blk = infer_hood.SampleBlock(source, roots,
                                      NeighborhoodSampler::kAllEdgeTypes, fans);
      },
      /*gather=*/
      [&](const block::SampledBlock& blk) {
        return block::GatherBlockFeatures(blk, feature_source,
                                          /*row_cache=*/nullptr);
      },
      /*compute=*/
      [&](size_t b, const block::SampledBlock& blk, const nn::Matrix& x,
          std::any&) {
        const nn::Matrix h2 = stack_.Embed(blk, x);
        const VertexId begin = static_cast<VertexId>(b * chunk);
        for (size_t i = 0; i < h2.rows(); ++i) {
          auto src = h2.Row(i);
          auto dst = out.Row(begin + i);
          std::copy(src.begin(), src.end(), dst.begin());
        }
      });
  return out;
}

Result<nn::Matrix> GraphSage::EmbedWithFeatures(const AttributedGraph& graph,
                                                const nn::Matrix& features) {
  if (graph.num_vertices() == 0) return Status::InvalidArgument("empty graph");
  ALIGRAPH_RETURN_NOT_OK(CheckAggregator(config_.aggregator));
  if (features.rows() != graph.num_vertices()) {
    return Status::InvalidArgument("feature matrix row count mismatch");
  }
  SageTrainer trainer(config_, features.cols());
  trainer.TrainEpochs(graph, features, config_.epochs);
  return trainer.Infer(graph, features);
}

std::string Gcn::name() const {
  switch (config_.mode) {
    case GcnMode::kFull:
      return "gcn";
    case GcnMode::kFastGcn:
      return "fastgcn";
    case GcnMode::kAsGcn:
      return "as-gcn";
  }
  return "gcn";
}

Result<nn::Matrix> Gcn::Embed(const AttributedGraph& graph) {
  if (graph.num_vertices() == 0) return Status::InvalidArgument("empty graph");
  const GnnConfig& base = config_.base;
  const VertexId n = graph.num_vertices();
  const nn::Matrix x = BuildFeatureMatrix(graph, base.feature_dim);
  Rng rng(base.seed);
  nn::Linear w1(base.feature_dim, base.dim, rng);
  nn::Linear w2(base.dim, base.dim, rng);
  nn::Adam opt(base.learning_rate);

  // Support sets per layer (Fast/AS modes); full mode uses every vertex.
  const bool sampled = config_.mode != GcnMode::kFull;
  std::vector<double> degree_weight(n);
  for (VertexId v = 0; v < n; ++v) {
    degree_weight[v] = static_cast<double>(graph.OutDegree(v) + 1);
  }
  AliasTable degree_table(degree_weight);

  const std::vector<VertexId> all = nn::AllVertices(graph);
  NegativeSampler negatives(graph, all, 0.75, base.seed + 2);

  double total_degree = 0;
  for (double w : degree_weight) total_degree += w;

  for (uint32_t epoch = 0; epoch < base.epochs; ++epoch) {
    for (size_t step = 0; step < base.batches_per_epoch / 8 + 1; ++step) {
      // Layer support sampling.
      std::unordered_set<VertexId> support;
      const std::unordered_set<VertexId>* support_ptr = nullptr;
      double support_scale = 1.0;
      if (sampled) {
        if (config_.mode == GcnMode::kFastGcn) {
          // Independent importance sampling over all vertices.
          for (size_t i = 0; i < config_.layer_samples; ++i) {
            support.insert(
                static_cast<VertexId>(degree_table.Sample(rng)));
          }
        } else {
          // AS-GCN: sample within the 1-hop neighborhood of a random batch,
          // conditioning the support on where it is actually needed.
          std::vector<VertexId> cand;
          for (size_t i = 0; i < base.batch_size; ++i) {
            const VertexId v = all[rng.Uniform(all.size())];
            for (const Neighbor& nb : graph.OutNeighbors(v)) {
              cand.push_back(nb.dst);
            }
          }
          if (cand.empty()) cand = all;
          for (size_t i = 0;
               i < config_.layer_samples && i < cand.size() * 4; ++i) {
            support.insert(cand[rng.Uniform(cand.size())]);
          }
        }
        support_ptr = &support;
        support_scale =
            total_degree / static_cast<double>(n) *
            static_cast<double>(support.size()) / config_.layer_samples;
      }

      // Row-normalized propagation with self loops, restricted to the
      // support set (none = all vertices) and compiled into a ScaledCsr once
      // per step; both forward propagations and the transposed backward one
      // reuse it. The importance-sampling estimator rescales each sampled
      // contribution by 1 / (s * q(u)).
      const block::ScaledCsr step_csr = block::BuildPropagationCsr(
          graph, support_ptr, support_scale, degree_weight);

      // Forward.
      const nn::Matrix px = step_csr.Propagate(x);
      nn::Matrix h1 = w1.ForwardAt(px);
      nn::ReluInPlace(h1);
      const nn::Matrix h1_act = h1;
      const nn::Matrix ph1 = step_csr.Propagate(h1_act);
      const nn::Matrix h2 = w2.ForwardAt(ph1);

      // Sampled-edge loss on h2.
      nn::Matrix dh2(h2.rows(), h2.cols());
      const size_t pairs = base.batch_size;
      const float denom = static_cast<float>(pairs * (1 + base.negatives));
      for (size_t i = 0; i < pairs; ++i) {
        const VertexId u = all[rng.Uniform(all.size())];
        const auto nbs = graph.OutNeighbors(u);
        if (nbs.empty()) continue;
        const VertexId v = nbs[rng.Uniform(nbs.size())].dst;
        PairGrad(h2, u, v, 1.0f, denom, dh2);
        for (VertexId ng : negatives.Sample(base.negatives, v)) {
          PairGrad(h2, u, ng, 0.0f, denom, dh2);
        }
      }

      // Backward.
      const nn::Matrix dph1 = w2.BackwardAt(ph1, dh2);
      const nn::Matrix dh1 = step_csr.PropagateTransposed(dph1);
      const nn::Matrix dh1_pre = nn::ReluBackward(h1_act, dh1);
      w1.BackwardAt(px, dh1_pre);
      w1.Apply(opt);
      w2.Apply(opt);
    }
  }

  // Inference is always exact full propagation with the trained weights.
  const block::ScaledCsr full_csr =
      block::BuildPropagationCsr(graph, nullptr, 1.0, degree_weight);
  const nn::Matrix px = full_csr.Propagate(x);
  nn::Matrix h1 = w1.ForwardAt(px);
  nn::ReluInPlace(h1);
  const nn::Matrix ph1 = full_csr.Propagate(h1);
  nn::Matrix h2 = w2.ForwardAt(ph1);
  nn::L2NormalizeRows(h2);
  return h2;
}

Result<nn::Matrix> Struc2Vec::Embed(const AttributedGraph& graph) {
  const VertexId n = graph.num_vertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  Rng rng(config_.sgns.seed + 41);

  // Structural signature: (log out-degree, log in-degree, log mean neighbor
  // degree) — a compact stand-in for struc2vec's degree-sequence rings.
  std::vector<std::array<float, 3>> sig(n);
  for (VertexId v = 0; v < n; ++v) {
    const auto nbs = graph.OutNeighbors(v);
    double mean_nb = 0;
    for (const Neighbor& nb : nbs) {
      mean_nb += static_cast<double>(graph.OutDegree(nb.dst));
    }
    if (!nbs.empty()) mean_nb /= static_cast<double>(nbs.size());
    sig[v] = {std::log1p(static_cast<float>(graph.OutDegree(v))),
              std::log1p(static_cast<float>(graph.InDegree(v))),
              std::log1p(static_cast<float>(mean_nb))};
  }
  auto dist = [&](VertexId a, VertexId b) {
    float acc = 0;
    for (int i = 0; i < 3; ++i) {
      const float d = sig[a][i] - sig[b][i];
      acc += d * d;
    }
    return acc;
  };

  // Structural neighbor lists: nearest similar_k among sampled candidates.
  std::vector<std::vector<VertexId>> similar(n);
  for (VertexId v = 0; v < n; ++v) {
    std::vector<std::pair<float, VertexId>> cand;
    cand.reserve(config_.candidates);
    for (size_t c = 0; c < config_.candidates; ++c) {
      const VertexId u = static_cast<VertexId>(rng.Uniform(n));
      if (u == v) continue;
      cand.emplace_back(dist(v, u), u);
    }
    const size_t k = std::min(config_.similar_k, cand.size());
    std::partial_sort(cand.begin(), cand.begin() + k, cand.end());
    for (size_t i = 0; i < k; ++i) similar[v].push_back(cand[i].second);
  }

  // Walks over the similarity lists, continuing rng's stream, + SGNS.
  const std::vector<VertexId> all = nn::AllVertices(graph);
  const auto walks = nn::GenerateWalks(
      all, config_.walks, rng,
      [&](const std::vector<VertexId>& walk, Rng& r) -> VertexId {
        const auto& list = similar[walk.back()];
        if (list.empty()) return kInvalidVertex;
        return list[r.Uniform(list.size())];
      });
  nn::SkipGramModel model(n, config_.sgns);
  NegativeSampler negs(graph, all, 0.75, config_.sgns.seed);
  model.TrainWalks(walks, negs);
  return model.embeddings().matrix();
}

}  // namespace algo
}  // namespace aligraph
