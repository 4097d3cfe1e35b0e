#include "algo/gatne.h"

#include <algorithm>
#include <cmath>

#include "nn/skipgram.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace algo {
Result<nn::Matrix> Gatne::Embed(const AttributedGraph& graph) {
  const VertexId n = graph.num_vertices();
  if (n == 0) return Status::InvalidArgument("empty graph");
  const size_t T = graph.num_edge_types();
  const size_t d = config_.dim;
  const size_t s = config_.spec_dim;
  const size_t a_dim = config_.att_dim;
  Rng rng(config_.seed);

  const nn::Matrix x = BuildFeatureMatrix(graph, config_.feature_dim);

  nn::EmbeddingTable base(n, d, rng, 0.05f);
  nn::EmbeddingTable context(n, d, rng, 0.05f);
  std::vector<nn::EmbeddingTable> spec;  // per type, n x s
  std::vector<nn::Matrix> m;             // per type, s x d
  std::vector<nn::Matrix> w_att;         // per type, s x a
  std::vector<nn::Matrix> v_att;         // per type, 1 x a
  for (size_t t = 0; t < T; ++t) {
    spec.emplace_back(n, s, rng, 0.05f);
    m.push_back(nn::Matrix::Xavier(s, d, rng));
    w_att.push_back(nn::Matrix::Xavier(s, a_dim, rng));
    v_att.push_back(nn::Matrix::Xavier(1, a_dim, rng));
  }
  // Start the attribute projection small: standardized feature vectors have
  // norm ~sqrt(feature_dim), and a full-scale Xavier projection would let
  // the (community-level) attribute term drown the per-vertex base
  // embedding's gradient signal early in training.
  nn::Matrix attr_proj = nn::Matrix::Xavier(config_.feature_dim, d, rng);
  attr_proj *= 0.1f;

  NegativeSampler negs(graph, nn::AllVertices(graph), 0.75, config_.seed + 1);
  const float lr = config_.learning_rate;

  // Scratch buffers reused across pairs.
  std::vector<float> h(d), dh(d), g(s), dg(s);
  std::vector<std::vector<float>> e(T, std::vector<float>(a_dim));
  std::vector<float> att(T), datt(T);
  // GATNE-T: the effective specific embedding of v for type t is the mean
  // of the type-t neighbors' u (including v's own), which makes U_v
  // structure-aware. agg_members[t] records whose rows contributed so the
  // backward pass can distribute du among them.
  std::vector<std::vector<float>> u_eff(T, std::vector<float>(s));
  std::vector<std::vector<VertexId>> agg_members(T);
  const size_t kAggFan = 3;
  // A walk position serves several (center, context) pairs in a row, so the
  // aggregated U_v is memoized per center (slightly stale within a window
  // after spec updates, which SGD tolerates).
  VertexId u_eff_cached_for = kInvalidVertex;

  auto build_u_eff = [&](VertexId v) {
    if (v == u_eff_cached_for) return;
    u_eff_cached_for = v;
    for (size_t t = 0; t < T; ++t) {
      auto& members = agg_members[t];
      members.clear();
      members.push_back(v);
      const auto nbs = graph.OutNeighbors(v, static_cast<EdgeType>(t));
      for (size_t f = 0; f < kAggFan && !nbs.empty(); ++f) {
        members.push_back(nbs[rng.Uniform(nbs.size())].dst);
      }
      auto& ue = u_eff[t];
      std::fill(ue.begin(), ue.end(), 0.0f);
      const float inv = 1.0f / static_cast<float>(members.size());
      for (VertexId w : members) nn::Axpy(inv, spec[t].Row(w), ue);
    }
  };

  // Forward pass for center v under target type c; fills h, g, e, att and
  // the aggregated u_eff / agg_members state.
  auto forward = [&](VertexId v, size_t c) {
    build_u_eff(v);
    // Attention over the per-type aggregated specific embeddings.
    for (size_t t = 0; t < T; ++t) {
      const auto& u = u_eff[t];
      auto& et = e[t];
      for (size_t j = 0; j < a_dim; ++j) {
        float acc = 0;
        for (size_t i = 0; i < s; ++i) acc += u[i] * w_att[c].At(i, j);
        et[j] = std::tanh(acc);
      }
      att[t] = nn::Dot(et, v_att[c].Row(0));
    }
    nn::Softmax(att);

    std::fill(g.begin(), g.end(), 0.0f);
    for (size_t t = 0; t < T; ++t) {
      nn::Axpy(att[t], u_eff[t], g);
    }
    // h = b + alpha * g M_c + beta * x D
    auto b = base.Row(v);
    std::copy(b.begin(), b.end(), h.begin());
    for (size_t i = 0; i < s; ++i) {
      nn::Axpy(config_.alpha * g[i], m[c].Row(i), h);
    }
    auto xv = x.Row(v);
    for (size_t i = 0; i < config_.feature_dim; ++i) {
      nn::Axpy(config_.beta * xv[i], attr_proj.Row(i), h);
    }
  };

  // Backward from dh into every trainable component.
  auto backward = [&](VertexId v, size_t c) {
    base.SgdUpdate(v, dh, lr);
    auto xv = x.Row(v);
    for (size_t i = 0; i < config_.feature_dim; ++i) {
      nn::Axpy(-lr * config_.beta * xv[i], dh, attr_proj.Row(i));
    }
    // dg = alpha * dh M_c^T ; dM_c = alpha * g^T dh
    for (size_t i = 0; i < s; ++i) {
      dg[i] = config_.alpha * nn::Dot(dh, m[c].Row(i));
      nn::Axpy(-lr * config_.alpha * g[i], dh, m[c].Row(i));
    }
    // Through the attention-weighted sum and softmax.
    for (size_t t = 0; t < T; ++t) {
      datt[t] = nn::Dot(dg, u_eff[t]);
    }
    float avg = 0;
    for (size_t t = 0; t < T; ++t) avg += att[t] * datt[t];
    std::vector<float> du(s);
    for (size_t t = 0; t < T; ++t) {
      const float dscore = att[t] * (datt[t] - avg);
      const auto& u = u_eff[t];
      auto& et = e[t];
      // du accumulates both the attention path and the weighted-sum path,
      // applied once at the end so the dW computation sees unmodified u.
      for (size_t i = 0; i < s; ++i) du[i] = att[t] * dg[i];
      // dv_att += dscore * e_t ; dpre = dscore * v_att ∘ (1 - e²)
      for (size_t j = 0; j < a_dim; ++j) {
        const float dpre =
            dscore * v_att[c].At(0, j) * (1.0f - et[j] * et[j]);
        v_att[c].At(0, j) -= lr * dscore * et[j];
        for (size_t i = 0; i < s; ++i) {
          // dW += u^T dpre ; du += dpre W
          const float w = w_att[c].At(i, j);
          w_att[c].At(i, j) -= lr * u[i] * dpre;
          du[i] += dpre * w;
        }
      }
      // u_eff was the mean over agg_members, so the gradient splits evenly
      // across the contributing rows.
      const float share = 1.0f / static_cast<float>(agg_members[t].size());
      for (VertexId w : agg_members[t]) {
        auto row = spec[t].Row(w);
        for (size_t i = 0; i < s; ++i) row[i] -= lr * share * du[i];
      }
    }
  };

  // Phase 0: warm-start the base embedding with plain skip-gram over
  // merged-graph walks (as the reference GATNE implementation initializes
  // its base embeddings), so the per-type phase refines a solid structural
  // embedding instead of training everything from noise.
  {
    const auto walks = nn::UniformWalks(graph, config_.walks);
    std::vector<float> db(d);
    for (const auto& walk : walks) {
      for (size_t i = 0; i + 1 < walk.size(); ++i) {
        const VertexId center = walk[i];
        auto b = base.Row(center);
        std::fill(db.begin(), db.end(), 0.0f);
        nn::SgnsUpdate(b, context, walk[i + 1], 1.0f, lr, db);
        for (VertexId ng : negs.Sample(config_.negatives, walk[i + 1])) {
          nn::SgnsUpdate(b, context, ng, 0.0f, lr, db);
        }
        nn::Axpy(-lr, db, b);
      }
    }
  }

  for (uint32_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t c = 0; c < T; ++c) {
      const auto walks =
          nn::LayerWalks(graph, config_.walks, static_cast<EdgeType>(c));
      for (const auto& walk : walks) {
        nn::ForEachContextPair(walk.size(), [&](size_t i, size_t j) {
          const VertexId center = walk[i];
          forward(center, c);
          std::fill(dh.begin(), dh.end(), 0.0f);
          nn::SgnsUpdate(h, context, walk[j], 1.0f, lr, dh);
          for (VertexId ng : negs.Sample(config_.negatives, walk[j])) {
            nn::SgnsUpdate(h, context, ng, 0.0f, lr, dh);
          }
          backward(center, c);
        });
      }
    }
  }

  // Materialize per-type embeddings and their mean.
  per_type_.assign(T, nn::Matrix(n, d));
  nn::Matrix mean(n, d);
  const float inv = 1.0f / static_cast<float>(T);
  for (size_t c = 0; c < T; ++c) {
    for (VertexId v = 0; v < n; ++v) {
      forward(v, c);
      auto dst = per_type_[c].Row(v);
      std::copy(h.begin(), h.end(), dst.begin());
      nn::Axpy(inv, dst, mean.Row(v));
    }
  }
  return mean;
}

}  // namespace algo
}  // namespace aligraph
