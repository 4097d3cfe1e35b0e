#include "algo/heterogeneous.h"

#include <algorithm>
#include <unordered_map>

#include "algo/classic.h"
#include "common/logging.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace algo {
Result<nn::Matrix> Metapath2Vec::Embed(const AttributedGraph& graph) {
  if (graph.num_vertices() == 0) return Status::InvalidArgument("empty graph");
  std::vector<EdgeType> metapath = config_.metapath;
  if (metapath.empty()) {
    // Default metapath: cycle over the edge types that actually carry edges
    // (schemas often register types, like the default "edge", that a given
    // dataset never uses).
    std::vector<size_t> per_type(graph.num_edge_types(), 0);
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      for (size_t t = 0; t < graph.num_edge_types(); ++t) {
        per_type[t] += graph.OutDegree(v, static_cast<EdgeType>(t));
      }
    }
    for (size_t t = 0; t < per_type.size(); ++t) {
      if (per_type[t] > 0) metapath.push_back(static_cast<EdgeType>(t));
    }
    if (metapath.empty()) {
      return Status::FailedPrecondition("graph has no edges");
    }
  }
  std::vector<VertexId> starts;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (!graph.OutNeighbors(v, metapath[0]).empty()) starts.push_back(v);
  }
  if (starts.empty()) return Status::FailedPrecondition("no metapath starts");
  const auto walks =
      nn::MetapathWalks(graph, config_.walks, metapath, starts);
  nn::SkipGramModel model(graph.num_vertices(), config_.sgns);
  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.sgns.seed);
  model.TrainWalks(walks, negs);
  return model.embeddings().matrix();
}

std::string Pmne::name() const {
  switch (config_.variant) {
    case PmneVariant::kNetwork:
      return "pmne-n";
    case PmneVariant::kResults:
      return "pmne-r";
    case PmneVariant::kCoAnalysis:
      return "pmne-c";
  }
  return "pmne";
}

Result<nn::Matrix> Pmne::Embed(const AttributedGraph& graph) {
  if (graph.num_vertices() == 0) return Status::InvalidArgument("empty graph");
  if (config_.variant == PmneVariant::kNetwork) {
    // Merging all layers into one network and embedding it once is
    // DeepWalk on the merged graph.
    return DeepWalk({config_.walks, config_.sgns}).Embed(graph);
  }
  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.sgns.seed);
  const size_t layers = graph.num_edge_types();

  if (config_.variant == PmneVariant::kResults) {
    // Embed each layer independently, concatenate the results.
    nn::SkipGramConfig per = config_.sgns;
    per.dim = std::max<size_t>(4, config_.sgns.dim / std::max<size_t>(layers, 1));
    nn::Matrix out;
    for (size_t t = 0; t < layers; ++t) {
      const auto walks =
          nn::LayerWalks(graph, config_.walks, static_cast<EdgeType>(t));
      nn::SkipGramModel model(graph.num_vertices(), per);
      model.TrainWalks(walks, negs);
      out = out.empty() ? model.embeddings().matrix()
                        : nn::ConcatCols(out, model.embeddings().matrix());
    }
    return out;
  }

  // Co-analysis: walks that hop between layers with probability
  // switch_prob. Each walk draws its starting layer before its first step.
  Rng rng(config_.walks.seed);
  EdgeType layer = 0;
  const auto walks = nn::GenerateWalks(
      nn::AllVertices(graph), config_.walks, rng,
      [&](const std::vector<VertexId>& walk, Rng& r) -> VertexId {
        if (walk.size() == 1) {
          layer = static_cast<EdgeType>(r.Uniform(layers));
        }
        if (r.Bernoulli(config_.switch_prob)) {
          layer = static_cast<EdgeType>(r.Uniform(layers));
        }
        auto nbs = graph.OutNeighbors(walk.back(), layer);
        if (nbs.empty()) nbs = graph.OutNeighbors(walk.back());
        if (nbs.empty()) return kInvalidVertex;
        return nbs[r.Uniform(nbs.size())].dst;
      });
  nn::SkipGramModel model(graph.num_vertices(), config_.sgns);
  model.TrainWalks(walks, negs);
  return model.embeddings().matrix();
}

Result<nn::Matrix> Mve::Embed(const AttributedGraph& graph) {
  if (graph.num_vertices() == 0) return Status::InvalidArgument("empty graph");
  const size_t views = graph.num_edge_types();
  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.sgns.seed);

  // Per-view embeddings.
  std::vector<nn::Matrix> view_emb;
  view_emb.reserve(views);
  for (size_t t = 0; t < views; ++t) {
    const auto walks =
        nn::LayerWalks(graph, config_.walks, static_cast<EdgeType>(t));
    nn::SkipGramModel model(graph.num_vertices(), config_.sgns);
    model.TrainWalks(walks, negs);
    view_emb.push_back(model.embeddings().matrix());
  }

  // Attention over views: learn logits w_t so the softmax-combined
  // embedding scores observed edges above sampled non-edges.
  std::vector<float> logits(views, 0.0f);
  Rng rng(config_.sgns.seed + 99);
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const Neighbor& nb : graph.OutNeighbors(v)) edges.emplace_back(v, nb.dst);
  }
  if (!edges.empty()) {
    for (uint32_t round = 0; round < config_.attention_rounds; ++round) {
      // Softmax of the current logits.
      std::vector<float> a = logits;
      nn::Softmax(a);

      const auto [u, v] = edges[rng.Uniform(edges.size())];
      const VertexId neg = static_cast<VertexId>(
          rng.Uniform(graph.num_vertices()));
      // Per-view pair scores.
      std::vector<float> s_pos(views), s_neg(views);
      float pos = 0, negs_score = 0;
      for (size_t t = 0; t < views; ++t) {
        s_pos[t] = nn::Dot(view_emb[t].Row(u), view_emb[t].Row(v));
        s_neg[t] = nn::Dot(view_emb[t].Row(u), view_emb[t].Row(neg));
        pos += a[t] * s_pos[t];
        negs_score += a[t] * s_neg[t];
      }
      const float gp = nn::Sigmoid(pos) - 1.0f;   // positive label grad
      const float gn = nn::Sigmoid(negs_score);   // negative label grad
      // dLoss/dlogit_t through the softmax.
      for (size_t t = 0; t < views; ++t) {
        float da = gp * s_pos[t] + gn * s_neg[t];
        float avg = 0;
        for (size_t r = 0; r < views; ++r) {
          avg += a[r] * (gp * s_pos[r] + gn * s_neg[r]);
        }
        logits[t] -= config_.attention_lr * a[t] * (da - avg);
      }
    }
  }

  // Combined embedding.
  std::vector<float> a = logits;
  nn::Softmax(a);
  nn::Matrix out(graph.num_vertices(), config_.sgns.dim);
  for (size_t t = 0; t < views; ++t) {
    for (size_t i = 0; i < out.rows(); ++i) {
      nn::Axpy(a[t], view_emb[t].Row(i), out.Row(i));
    }
  }
  return out;
}

Result<nn::Matrix> Mne::Embed(const AttributedGraph& graph) {
  if (graph.num_vertices() == 0) return Status::InvalidArgument("empty graph");
  const size_t layers = graph.num_edge_types();
  const size_t n = graph.num_vertices();
  Rng rng(config_.seed);

  nn::EmbeddingTable common(n, config_.dim, rng);
  nn::EmbeddingTable context(n, config_.dim, rng);
  std::vector<nn::EmbeddingTable> extra;  // per layer, extra_dim
  std::vector<nn::Matrix> proj;           // per layer, extra_dim x dim
  for (size_t t = 0; t < layers; ++t) {
    extra.emplace_back(n, config_.extra_dim, rng);
    proj.push_back(nn::Matrix::Xavier(config_.extra_dim, config_.dim, rng));
  }

  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.seed);
  const float lr = config_.learning_rate;
  std::vector<float> h(config_.dim);
  std::vector<float> dh(config_.dim);

  for (uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t t = 0; t < layers; ++t) {
      const auto walks =
          nn::LayerWalks(graph, config_.walks, static_cast<EdgeType>(t));
      for (const auto& walk : walks) {
        nn::ForEachContextPair(walk.size(), [&](size_t i, size_t j) {
          const VertexId center = walk[i];
          // h_{v,t} = b_v + u_{v,t} P_t
          auto b = common.Row(center);
          auto u = extra[t].Row(center);
          std::copy(b.begin(), b.end(), h.begin());
          for (size_t e = 0; e < config_.extra_dim; ++e) {
            nn::Axpy(u[e], proj[t].Row(e), h);
          }
          std::fill(dh.begin(), dh.end(), 0.0f);
          nn::SgnsUpdate(h, context, walk[j], 1.0f, lr, dh);
          for (VertexId ng : negs.Sample(config_.negatives, walk[j])) {
            nn::SgnsUpdate(h, context, ng, 0.0f, lr, dh);
          }
          // Backprop dh into b, u and P_t.
          common.SgdUpdate(center, dh, lr);
          for (size_t e = 0; e < config_.extra_dim; ++e) {
            const float du = nn::Dot(dh, proj[t].Row(e));
            nn::Axpy(-lr * u[e], dh, proj[t].Row(e));
            extra[t].Row(center)[e] -= lr * du;
          }
        });
      }
    }
  }

  // Per-layer embeddings plus the common embedding as the primary output.
  per_layer_.clear();
  for (size_t t = 0; t < layers; ++t) {
    nn::Matrix emb(n, config_.dim);
    for (VertexId v = 0; v < n; ++v) {
      auto b = common.Row(v);
      auto dst = emb.Row(v);
      std::copy(b.begin(), b.end(), dst.begin());
      auto u = extra[t].Row(v);
      for (size_t e = 0; e < config_.extra_dim; ++e) {
        nn::Axpy(u[e], proj[t].Row(e), dst);
      }
    }
    per_layer_.push_back(std::move(emb));
  }
  return common.matrix();
}

Result<nn::Matrix> Anrl::Embed(const AttributedGraph& graph) {
  if (graph.num_vertices() == 0) return Status::InvalidArgument("empty graph");
  const size_t n = graph.num_vertices();
  Rng rng(config_.seed);

  const nn::Matrix x = BuildFeatureMatrix(graph, config_.feature_dim);
  // Neighbor-enhancement targets: mean of neighbors' features.
  nn::Matrix target(n, config_.feature_dim);
  for (VertexId v = 0; v < n; ++v) {
    const auto nbs = graph.OutNeighbors(v);
    auto row = target.Row(v);
    if (nbs.empty()) {
      auto self = x.Row(v);
      std::copy(self.begin(), self.end(), row.begin());
      continue;
    }
    const float inv = 1.0f / static_cast<float>(nbs.size());
    for (const Neighbor& nb : nbs) nn::Axpy(inv, x.Row(nb.dst), row);
  }

  nn::Linear encoder(config_.feature_dim, config_.dim, rng);
  nn::Linear decoder(config_.dim, config_.feature_dim, rng);
  nn::EmbeddingTable context(n, config_.dim, rng);
  nn::Sgd opt(config_.learning_rate);
  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.seed);

  // Context lists from walks: center -> sampled contexts.
  const auto walks = nn::UniformWalks(graph, config_.walks);
  std::unordered_map<VertexId, std::vector<VertexId>> contexts;
  for (const auto& walk : walks) {
    for (size_t i = 0; i + 1 < walk.size(); ++i) {
      contexts[walk[i]].push_back(walk[i + 1]);
      contexts[walk[i + 1]].push_back(walk[i]);
    }
  }

  nn::Matrix xv(1, config_.feature_dim);
  for (uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (VertexId v = 0; v < n; ++v) {
      auto src = x.Row(v);
      std::copy(src.begin(), src.end(), xv.Row(0).begin());
      nn::Matrix h = encoder.ForwardAt(xv);
      nn::TanhInPlace(h);
      const nn::Matrix h_act = h;

      // Reconstruction branch.
      nn::Matrix recon = decoder.ForwardAt(h_act);
      nn::Matrix drecon(1, config_.feature_dim);
      auto t = target.Row(v);
      auto r = recon.Row(0);
      auto dr = drecon.Row(0);
      const float scale = 2.0f * config_.reconstruction_weight /
                          static_cast<float>(config_.feature_dim);
      for (size_t j = 0; j < config_.feature_dim; ++j) {
        dr[j] = scale * (r[j] - t[j]);
      }
      nn::Matrix dh = decoder.BackwardAt(h_act, drecon);

      // Skip-gram branch through the encoder output.
      auto it = contexts.find(v);
      if (it != contexts.end() && !it->second.empty()) {
        const VertexId ctx_v =
            it->second[rng.Uniform(it->second.size())];
        const float lr = config_.learning_rate;
        nn::SgnsUpdate(h_act.Row(0), context, ctx_v, 1.0f, lr, dh.Row(0));
        for (VertexId ng : negs.Sample(config_.negatives, ctx_v)) {
          nn::SgnsUpdate(h_act.Row(0), context, ng, 0.0f, lr, dh.Row(0));
        }
      }

      encoder.BackwardAt(xv, nn::TanhBackward(h_act, dh));
      encoder.Apply(opt);
      decoder.Apply(opt);
    }
  }

  // Final embeddings: encoder output for every vertex.
  nn::Matrix out(n, config_.dim);
  for (VertexId v = 0; v < n; ++v) {
    auto src = x.Row(v);
    std::copy(src.begin(), src.end(), xv.Row(0).begin());
    nn::Matrix h = encoder.ForwardAt(xv);
    nn::TanhInPlace(h);
    auto dst = out.Row(v);
    auto hr = h.Row(0);
    std::copy(hr.begin(), hr.end(), dst.begin());
  }
  return out;
}

}  // namespace algo
}  // namespace aligraph
