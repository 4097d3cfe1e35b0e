#include "algo/evolving.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/logging.h"
#include "nn/skipgram.h"
#include "nn/walks.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace algo {
namespace {

uint64_t PairKey(VertexId a, VertexId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

// One labeled example of the evolution-prediction task.
struct Example {
  VertexId u;
  VertexId v;
  uint32_t label;  // EvolutionClass
};

// Builds the labeled transition t -> t+1: positives from the delta at t+1,
// negatives sampled among pairs with no edge at t+1.
std::vector<Example> BuildExamples(const DynamicGraph& dynamic, Timestamp t,
                                   size_t negatives_per_positive, Rng& rng) {
  std::vector<Example> examples;
  const auto& delta = dynamic.DeltaAt(t + 1);
  const AttributedGraph& next = dynamic.Snapshot(t + 1);
  std::unordered_set<uint64_t> edge_keys;
  for (VertexId v = 0; v < next.num_vertices(); ++v) {
    for (const Neighbor& nb : next.OutNeighbors(v)) {
      edge_keys.insert(PairKey(v, nb.dst));
    }
  }
  for (const DynamicEdge& de : delta) {
    examples.push_back(
        {de.edge.src, de.edge.dst,
         static_cast<uint32_t>(de.kind == EvolutionKind::kBurst
                                   ? EvolutionClass::kBurst
                                   : EvolutionClass::kNormal)});
    for (size_t k = 0; k < negatives_per_positive; ++k) {
      for (int tries = 0; tries < 32; ++tries) {
        const VertexId a =
            static_cast<VertexId>(rng.Uniform(next.num_vertices()));
        const VertexId b =
            static_cast<VertexId>(rng.Uniform(next.num_vertices()));
        if (a == b || edge_keys.count(PairKey(a, b)) > 0) continue;
        examples.push_back(
            {a, b, static_cast<uint32_t>(EvolutionClass::kNoEdge)});
        break;
      }
    }
  }
  return examples;
}

}  // namespace

std::string EvolvingGnn::name() const {
  switch (config_.embedder) {
    case DynamicEmbedder::kEvolvingGnn:
      return "evolving_gnn";
    case DynamicEmbedder::kStaticGraphSage:
      return "graphsage_static";
    case DynamicEmbedder::kTne:
      return "tne";
  }
  return "evolving";
}

Result<EvolvingScores> EvolvingGnn::Run(const DynamicGraph& dynamic) {
  const Timestamp T = dynamic.num_timestamps();
  if (T < 3) {
    return Status::InvalidArgument("need at least 3 timestamps");
  }
  ALIGRAPH_RETURN_NOT_OK(CheckAggregator(config_.gnn.aggregator));
  const VertexId n = dynamic.Snapshot(1).num_vertices();
  const size_t d = config_.gnn.dim;
  Rng rng(config_.seed);

  // Per-snapshot embeddings h(t), t = 1..T-1 (the last snapshot is only
  // used as prediction target).
  std::vector<nn::Matrix> h(T);  // index t-1; h[T-1] unused
  switch (config_.embedder) {
    case DynamicEmbedder::kEvolvingGnn: {
      // Weights persist across snapshots: interleaved training.
      const nn::Matrix features =
          BuildFeatureMatrix(dynamic.Snapshot(1), config_.gnn.feature_dim);
      SageTrainer trainer(config_.gnn, features.cols());
      for (Timestamp t = 1; t < T; ++t) {
        trainer.TrainEpochs(dynamic.Snapshot(t), features,
                            config_.gnn.epochs);
      }
      // Re-infer every snapshot with the final weights so the classifier's
      // training and test features come from the same representation space.
      for (Timestamp t = 1; t < T; ++t) {
        h[t - 1] = trainer.Infer(dynamic.Snapshot(t), features);
      }
      break;
    }
    case DynamicEmbedder::kStaticGraphSage: {
      // A static model sees only the last training snapshot.
      GraphSage sage(config_.gnn);
      ALIGRAPH_ASSIGN_OR_RETURN(nn::Matrix last,
                                sage.Embed(dynamic.Snapshot(T - 1)));
      for (Timestamp t = 1; t < T; ++t) h[t - 1] = last;
      break;
    }
    case DynamicEmbedder::kTne: {
      // Per-snapshot DeepWalk warm-started from the previous snapshot:
      // temporally smoothed embeddings in one consistent space.
      nn::SkipGramConfig sg;
      sg.dim = d;
      sg.seed = config_.seed;
      nn::SkipGramModel model(n, sg);
      nn::WalkConfig wc;
      wc.walks_per_vertex = 2;
      wc.walk_length = 8;
      wc.seed = config_.seed + 3;
      for (Timestamp t = 1; t < T; ++t) {
        const AttributedGraph& snap = dynamic.Snapshot(t);
        NegativeSampler negs(snap, nn::AllVertices(snap), 0.75,
                             config_.seed + t);
        model.TrainWalks(nn::UniformWalks(snap, wc), negs);
        h[t - 1] = model.embeddings().matrix();
      }
      break;
    }
  }

  // Temporal state: gated recurrence over snapshots.
  std::vector<nn::Matrix> temporal(T);
  temporal[0] = h[0];
  const float gate = config_.temporal_gate;
  for (Timestamp t = 2; t < T; ++t) {
    temporal[t - 1] = temporal[t - 2];
    temporal[t - 1] *= (1.0f - gate);
    nn::Matrix scaled = h[t - 1];
    scaled *= gate;
    temporal[t - 1] += scaled;
  }

  const bool use_temporal =
      config_.embedder != DynamicEmbedder::kStaticGraphSage;

  // Pair features: [h_u ⊙ h_v || h̃_u ⊙ h̃_v].
  const size_t feat_dim = 2 * d;
  auto pair_features = [&](Timestamp t, VertexId u, VertexId v,
                           nn::Matrix* row_out, size_t row) {
    auto hu = h[t - 1].Row(u);
    auto hv = h[t - 1].Row(v);
    auto dst = row_out->Row(row);
    for (size_t j = 0; j < d; ++j) dst[j] = hu[j] * hv[j];
    const nn::Matrix& temp = use_temporal ? temporal[t - 1] : h[t - 1];
    auto tu = temp.Row(u);
    auto tv = temp.Row(v);
    for (size_t j = 0; j < d; ++j) dst[d + j] = tu[j] * tv[j];
  };

  // Classifier over 3 evolution classes.
  Rng crng(config_.seed + 11);
  nn::Linear classifier(feat_dim, 3, crng);
  nn::Adam opt(config_.classifier_lr);

  std::vector<std::vector<Example>> train_sets;
  for (Timestamp t = 1; t + 1 < T; ++t) {
    train_sets.push_back(
        BuildExamples(dynamic, t, config_.negatives_per_positive, rng));
  }
  const std::vector<Example> test =
      BuildExamples(dynamic, T - 1, config_.negatives_per_positive, rng);

  for (uint32_t epoch = 0; epoch < config_.classifier_epochs; ++epoch) {
    for (size_t si = 0; si + 1 < static_cast<size_t>(T - 1); ++si) {
      const auto& examples = train_sets[si];
      if (examples.empty()) continue;
      nn::Matrix x(examples.size(), feat_dim);
      std::vector<uint32_t> labels(examples.size());
      for (size_t i = 0; i < examples.size(); ++i) {
        pair_features(static_cast<Timestamp>(si + 1), examples[i].u,
                      examples[i].v, &x, i);
        labels[i] = examples[i].label;
      }
      nn::Matrix logits = classifier.ForwardAt(x);
      nn::Matrix grad;
      nn::SoftmaxXent(logits, labels, &grad);
      classifier.BackwardAt(x, grad);
      classifier.Apply(opt);
    }
  }

  // Test on the final transition; report the two scenarios separately.
  EvolvingScores scores;
  std::vector<uint32_t> labels_normal, preds_normal, labels_burst,
      preds_burst;
  nn::Matrix x(1, feat_dim);
  for (const Example& ex : test) {
    pair_features(T - 1, ex.u, ex.v, &x, 0);
    nn::Matrix logits = classifier.ForwardAt(x);
    uint32_t pred = 0;
    for (uint32_t c = 1; c < 3; ++c) {
      if (logits.At(0, c) > logits.At(0, pred)) pred = c;
    }
    if (ex.label != static_cast<uint32_t>(EvolutionClass::kBurst)) {
      labels_normal.push_back(ex.label);
      preds_normal.push_back(pred);
    }
    if (ex.label != static_cast<uint32_t>(EvolutionClass::kNormal)) {
      labels_burst.push_back(ex.label);
      preds_burst.push_back(pred);
    }
  }
  scores.normal = eval::ComputeMultiClassF1(labels_normal, preds_normal, 3);
  scores.burst = eval::ComputeMultiClassF1(labels_burst, preds_burst, 3);
  return scores;
}

}  // namespace algo
}  // namespace aligraph
