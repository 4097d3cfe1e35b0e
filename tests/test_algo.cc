// Tests for the algorithm layer: every baseline and in-house model runs on
// small graphs, produces well-formed embeddings, and where the paper makes
// a comparative claim at small scale we check the direction of the effect.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "algo/bayesian.h"
#include "algo/classic.h"
#include "algo/evolving.h"
#include "algo/gatne.h"
#include "algo/gnn.h"
#include "algo/hep.h"
#include "algo/heterogeneous.h"
#include "algo/hierarchical.h"
#include "algo/mixture.h"
#include "eval/link_prediction.h"
#include "gen/dynamic_gen.h"
#include "gen/powerlaw.h"
#include "gen/taobao.h"

namespace aligraph {
namespace algo {
namespace {

// Small but non-trivial test graphs, built once per suite.
const AttributedGraph& SmallGraph() {
  static const AttributedGraph* g = [] {
    gen::ChungLuConfig cfg;
    cfg.num_vertices = 400;
    cfg.avg_degree = 8;
    cfg.directed = false;
    cfg.seed = 3;
    return new AttributedGraph(std::move(gen::ChungLu(cfg)).value());
  }();
  return *g;
}

// Stochastic-block-model graph: 20 communities of 20 vertices. Link
// prediction is only meaningful on graphs with structure (a pure Chung-Lu
// graph carries no signal beyond degree), so quality tests use this.
const AttributedGraph& CommunityGraph() {
  static const AttributedGraph* g = [] {
    GraphBuilder gb(GraphSchema(), /*undirected=*/true);
    const int comms = 20, per = 20;
    for (int i = 0; i < comms * per; ++i) gb.AddVertex();
    Rng rng(31);
    for (int v = 0; v < comms * per; ++v) {
      const int c = v / per;
      for (int e = 0; e < 6; ++e) {
        const int u = c * per + static_cast<int>(rng.Uniform(per));
        if (u != v) (void)gb.AddEdge(v, u);
      }
      const int u = static_cast<int>(rng.Uniform(comms * per));
      if (u != v) (void)gb.AddEdge(v, u);
    }
    return new AttributedGraph(std::move(gb.Build()).value());
  }();
  return *g;
}

const AttributedGraph& SmallTaobao() {
  static const AttributedGraph* g = [] {
    return new AttributedGraph(
        std::move(gen::Taobao(gen::TaobaoSmallConfig(0.03))).value());
  }();
  return *g;
}

// FNV-1a over the float bit patterns, row-major: equal iff bit-identical.
uint64_t Fingerprint(const nn::Matrix& m) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < m.size(); ++i) {
    uint32_t bits;
    std::memcpy(&bits, &m.data()[i], sizeof(bits));
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= (bits >> shift) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

bool IsFinite(const nn::Matrix& m) {
  for (size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m.data()[i])) return false;
  }
  return true;
}

// Every embedding algorithm must run and produce a finite [n, *] matrix.
class AlgorithmSmokeTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  static std::unique_ptr<EmbeddingAlgorithm> Make(const std::string& name) {
    nn::WalkConfig fast_walks;
    fast_walks.walks_per_vertex = 1;
    fast_walks.walk_length = 6;
    nn::SkipGramConfig fast_sgns;
    fast_sgns.dim = 8;
    fast_sgns.epochs = 1;

    if (name == "deepwalk") {
      DeepWalk::Config c;
      c.walks = fast_walks;
      c.sgns = fast_sgns;
      return std::make_unique<DeepWalk>(c);
    }
    if (name == "node2vec") {
      Node2Vec::Config c;
      c.walks = fast_walks;
      c.sgns = fast_sgns;
      return std::make_unique<Node2Vec>(c);
    }
    if (name == "line") {
      Line::Config c;
      c.dim = 8;
      c.epochs = 1;
      return std::make_unique<Line>(c);
    }
    if (name == "metapath2vec") {
      Metapath2Vec::Config c;
      c.walks = fast_walks;
      c.sgns = fast_sgns;
      return std::make_unique<Metapath2Vec>(c);
    }
    if (name == "pmne-n" || name == "pmne-r" || name == "pmne-c") {
      Pmne::Config c;
      c.walks = fast_walks;
      c.sgns = fast_sgns;
      c.variant = name == "pmne-n" ? PmneVariant::kNetwork
                  : name == "pmne-r" ? PmneVariant::kResults
                                     : PmneVariant::kCoAnalysis;
      return std::make_unique<Pmne>(c);
    }
    if (name == "mve") {
      Mve::Config c;
      c.walks = fast_walks;
      c.sgns = fast_sgns;
      c.attention_rounds = 50;
      return std::make_unique<Mve>(c);
    }
    if (name == "mne") {
      Mne::Config c;
      c.walks = fast_walks;
      c.dim = 8;
      c.extra_dim = 4;
      c.epochs = 1;
      return std::make_unique<Mne>(c);
    }
    if (name == "anrl") {
      Anrl::Config c;
      c.dim = 8;
      c.feature_dim = 8;
      c.walks = fast_walks;
      c.epochs = 1;
      return std::make_unique<Anrl>(c);
    }
    if (name == "graphsage") {
      GnnConfig c;
      c.dim = 8;
      c.feature_dim = 8;
      c.batches_per_epoch = 8;
      return std::make_unique<GraphSage>(c);
    }
    if (name == "graphsage-maxpool") {
      GnnConfig c;
      c.dim = 8;
      c.feature_dim = 8;
      c.batches_per_epoch = 8;
      c.aggregator = "maxpool";
      return std::make_unique<GraphSage>(c);
    }
    if (name == "gcn" || name == "fastgcn" || name == "as-gcn") {
      Gcn::Config c;
      c.base.dim = 8;
      c.base.feature_dim = 8;
      c.base.batches_per_epoch = 8;
      c.mode = name == "gcn" ? GcnMode::kFull
               : name == "fastgcn" ? GcnMode::kFastGcn
                                   : GcnMode::kAsGcn;
      return std::make_unique<Gcn>(c);
    }
    if (name == "struc2vec") {
      Struc2Vec::Config c;
      c.sgns = fast_sgns;
      c.walks = fast_walks;
      c.candidates = 64;
      return std::make_unique<Struc2Vec>(c);
    }
    if (name == "hep" || name == "ahep") {
      Hep::Config c;
      c.dim = 8;
      c.epochs = 1;
      c.sample_size = name == "ahep" ? 3 : 0;
      return std::make_unique<Hep>(c);
    }
    if (name == "gatne") {
      Gatne::Config c;
      c.dim = 8;
      c.spec_dim = 4;
      c.att_dim = 4;
      c.walks = fast_walks;
      c.epochs = 1;
      return std::make_unique<Gatne>(c);
    }
    if (name == "mixture_gnn") {
      MixtureGnn::Config c;
      c.senses = 2;
      c.sense_dim = 4;
      c.walks = fast_walks;
      c.epochs = 1;
      return std::make_unique<MixtureGnn>(c);
    }
    if (name == "hierarchical_gnn") {
      HierarchicalGnn::Config c;
      c.base.dim = 8;
      c.base.feature_dim = 8;
      c.base.batches_per_epoch = 4;
      c.clusters = 16;
      return std::make_unique<HierarchicalGnn>(c);
    }
    ADD_FAILURE() << "unknown algorithm " << name;
    return nullptr;
  }
};

TEST_P(AlgorithmSmokeTest, ProducesFiniteEmbeddings) {
  auto algorithm = Make(GetParam());
  ASSERT_NE(algorithm, nullptr);
  const AttributedGraph& g = SmallGraph();
  auto emb = algorithm->Embed(g);
  ASSERT_TRUE(emb.ok()) << GetParam() << ": " << emb.status().ToString();
  EXPECT_EQ(emb->rows(), g.num_vertices()) << GetParam();
  EXPECT_GT(emb->cols(), 0u) << GetParam();
  EXPECT_TRUE(IsFinite(*emb)) << GetParam();
}

TEST_P(AlgorithmSmokeTest, WorksOnHeterogeneousGraph) {
  auto algorithm = Make(GetParam());
  ASSERT_NE(algorithm, nullptr);
  const AttributedGraph& g = SmallTaobao();
  auto emb = algorithm->Embed(g);
  ASSERT_TRUE(emb.ok()) << GetParam() << ": " << emb.status().ToString();
  EXPECT_EQ(emb->rows(), g.num_vertices()) << GetParam();
  EXPECT_TRUE(IsFinite(*emb)) << GetParam();
}

TEST_P(AlgorithmSmokeTest, FailsCleanlyOnEmptyGraph) {
  auto algorithm = Make(GetParam());
  ASSERT_NE(algorithm, nullptr);
  GraphBuilder gb;
  auto empty = std::move(gb.Build()).value();
  EXPECT_FALSE(algorithm->Embed(empty).ok()) << GetParam();
}

// Golden Embed fingerprints on SmallTaobao() with Make()'s configs. They pin
// every algorithm's draws, float-op order and update order: the shared SGNS
// update, context window, walk loop, softmax and GraphSAGE stack must
// reproduce each algorithm's bits exactly.
TEST_P(AlgorithmSmokeTest, MatchesGoldenFingerprint) {
  static const std::map<std::string, uint64_t> kGolden = {
      {"deepwalk", 0xd314003427be03b9ULL},
      {"node2vec", 0xe3d403f0f679dc07ULL},
      {"line", 0x847bc35d2bd0aa9bULL},
      {"metapath2vec", 0xaef376c44eddbf0bULL},
      {"pmne-n", 0xd314003427be03b9ULL},
      {"pmne-r", 0xc9c29924585c75eaULL},
      {"pmne-c", 0x939861c3453e1333ULL},
      {"mve", 0xd4ef8eec758558cdULL},
      {"mne", 0x8a984d4595a9944bULL},
      {"anrl", 0x0e6efc406f1eec09ULL},
      {"graphsage", 0x1ba2dc57031dde54ULL},
      {"graphsage-maxpool", 0xa49e81ca7de3854cULL},
      {"gcn", 0xccd5dcdd6af34d1eULL},
      {"fastgcn", 0xb97643fe5fd50beeULL},
      {"as-gcn", 0xfc732c1520d4eabcULL},
      {"struc2vec", 0xf35b2621d8af0d34ULL},
      {"hep", 0x0e57bba4f618abbcULL},
      {"ahep", 0x4fcfe69145d5131eULL},
      {"gatne", 0x1373759bcc4f76fdULL},
      {"mixture_gnn", 0x58bcaa23d62c24e8ULL},
      {"hierarchical_gnn", 0xcf6bec5675670c20ULL},
  };
  auto algorithm = Make(GetParam());
  ASSERT_NE(algorithm, nullptr);
  auto emb = algorithm->Embed(SmallTaobao());
  ASSERT_TRUE(emb.ok()) << GetParam() << ": " << emb.status().ToString();
  EXPECT_EQ(Fingerprint(*emb), kGolden.at(GetParam()))
      << GetParam() << " fingerprint 0x" << std::hex << Fingerprint(*emb);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmSmokeTest,
    ::testing::Values("deepwalk", "node2vec", "line", "metapath2vec",
                      "pmne-n", "pmne-r", "pmne-c", "mve", "mne", "anrl",
                      "graphsage", "graphsage-maxpool", "gcn", "fastgcn",
                      "as-gcn", "struc2vec", "hep", "ahep", "gatne",
                      "mixture_gnn", "hierarchical_gnn"));

TEST(DeepWalkQualityTest, BeatsRandomEmbeddingsOnLinkPrediction) {
  const AttributedGraph& g = CommunityGraph();
  auto split = std::move(eval::SplitLinkPrediction(g, 0.2, 42)).value();

  DeepWalk::Config cfg;
  cfg.walks.walks_per_vertex = 4;
  cfg.walks.walk_length = 10;
  cfg.sgns.dim = 16;
  cfg.sgns.epochs = 3;
  cfg.sgns.learning_rate = 0.025f;
  DeepWalk dw(cfg);
  auto emb = std::move(dw.Embed(split.train)).value();
  const auto trained = eval::EvaluateLinkPrediction(emb, split);

  Rng rng(5);
  nn::Matrix random = nn::Matrix::Gaussian(g.num_vertices(), 16, 1.0f, rng);
  const auto untrained = eval::EvaluateLinkPrediction(random, split);
  EXPECT_GT(trained.roc_auc, untrained.roc_auc + 0.1);
  EXPECT_GT(trained.roc_auc, 0.6);
}

TEST(HepCostTest, AhepTouchesFewerRows) {
  const AttributedGraph& g = SmallTaobao();
  Hep::Config full;
  full.dim = 8;
  full.epochs = 1;
  Hep hep(full);
  ASSERT_TRUE(hep.Embed(g).ok());

  Hep::Config sampled = full;
  sampled.sample_size = 2;
  Hep ahep(sampled);
  ASSERT_TRUE(ahep.Embed(g).ok());

  EXPECT_EQ(hep.name(), "hep");
  EXPECT_EQ(ahep.name(), "ahep");
  EXPECT_LT(ahep.propagation_terms(), hep.propagation_terms());
}

TEST(GatneTest, PerTypeEmbeddingsMaterialized) {
  const AttributedGraph& g = SmallTaobao();
  Gatne::Config cfg;
  cfg.dim = 8;
  cfg.spec_dim = 4;
  cfg.att_dim = 4;
  cfg.walks.walks_per_vertex = 1;
  cfg.walks.walk_length = 5;
  cfg.epochs = 1;
  Gatne gatne(cfg);
  ASSERT_TRUE(gatne.Embed(g).ok());
  EXPECT_EQ(gatne.per_type_embeddings().size(), g.num_edge_types());
  for (const auto& emb : gatne.per_type_embeddings()) {
    EXPECT_EQ(emb.rows(), g.num_vertices());
    EXPECT_TRUE(IsFinite(emb));
  }
}

TEST(MneTest, PerLayerEmbeddingsDifferFromCommon) {
  const AttributedGraph& g = SmallTaobao();
  Mne::Config cfg;
  cfg.dim = 8;
  cfg.extra_dim = 4;
  cfg.walks.walks_per_vertex = 1;
  cfg.walks.walk_length = 5;
  cfg.epochs = 1;
  Mne mne(cfg);
  auto common = std::move(mne.Embed(g)).value();
  ASSERT_EQ(mne.per_layer_embeddings().size(), g.num_edge_types());
  // Per-layer embedding = common + layer-specific part: not identical.
  double diff = 0;
  const auto& layer0 = mne.per_layer_embeddings()[1];
  for (size_t i = 0; i < std::min<size_t>(common.size(), 1000); ++i) {
    diff += std::abs(common.data()[i] - layer0.data()[i]);
  }
  EXPECT_GT(diff, 0.0);
}

TEST(HierarchicalTest, OutputConcatenatesLevels) {
  const AttributedGraph& g = SmallGraph();
  HierarchicalGnn::Config cfg;
  cfg.base.dim = 8;
  cfg.base.feature_dim = 8;
  cfg.base.batches_per_epoch = 4;
  cfg.clusters = 8;
  HierarchicalGnn h(cfg);
  auto emb = std::move(h.Embed(g)).value();
  EXPECT_EQ(emb.cols(), 16u);  // 2 * dim
}

TEST(EvolvingTest, RunsAndReturnsScoresInRange) {
  gen::DynamicConfig dcfg;
  dcfg.num_vertices = 300;
  dcfg.num_timestamps = 4;
  dcfg.base_edges = 1500;
  dcfg.normal_edges_per_step = 400;
  dcfg.burst_size = 100;
  auto dg = std::move(gen::GenerateDynamic(dcfg)).value();
  // {normal.micro, normal.macro, burst.micro, burst.macro} per embedder.
  static const std::map<DynamicEmbedder, std::array<double, 4>> kGolden = {
      {DynamicEmbedder::kEvolvingGnn,
       {0.75072463768115938, 0.56622807017543852, 0.8921658986175115,
        0.47219512195121949}},
      {DynamicEmbedder::kStaticGraphSage,
       {0.72101449275362317, 0.46869946869946866, 0.89677419354838706,
        0.47394057476863127}},
      {DynamicEmbedder::kTne,
       {0.73333333333333328, 0.66312437810945268, 0.75668202764976955,
        0.44354403025391681}},
  };

  std::map<DynamicEmbedder, std::array<double, 4>> seen;
  for (auto embedder :
       {DynamicEmbedder::kEvolvingGnn, DynamicEmbedder::kStaticGraphSage,
        DynamicEmbedder::kTne}) {
    // bench_table11_evolving's GnnConfig. At dim 8 and 4 batches both GNN
    // embedders predict "no edge" for every example, and their scores show
    // nothing of the trained embeddings.
    EvolvingGnn::Config cfg;
    cfg.gnn.dim = 32;
    cfg.gnn.feature_dim = 16;
    cfg.gnn.epochs = 1;
    cfg.gnn.batches_per_epoch = 64;
    cfg.embedder = embedder;
    EvolvingGnn model(cfg);
    auto scores = model.Run(dg);
    ASSERT_TRUE(scores.ok()) << model.name();
    EXPECT_GE(scores->normal.micro, 0.0);
    EXPECT_LE(scores->normal.micro, 1.0);
    EXPECT_GE(scores->burst.macro, 0.0);
    EXPECT_LE(scores->burst.macro, 1.0);
    // Exact scores: kEvolvingGnn reuses one SageTrainer across snapshots
    // and kTne one SkipGramModel, so these pin both warm-start paths.
    const auto& want = kGolden.at(embedder);
    const std::array<double, 4> got = {scores->normal.micro,
                                       scores->normal.macro,
                                       scores->burst.micro,
                                       scores->burst.macro};
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i])
          << model.name() << " score " << i << " = "
          << std::setprecision(17) << got[i];
    }
    seen[embedder] = got;
  }
  // The two GNN embedders train differently (warm-started vs per
  // snapshot), so scores that match in all four places would mean the
  // classifier never saw either embedding.
  EXPECT_NE(seen[DynamicEmbedder::kEvolvingGnn],
            seen[DynamicEmbedder::kStaticGraphSage]);
}

TEST(EvolvingTest, RejectsTooFewTimestamps) {
  gen::DynamicConfig dcfg;
  dcfg.num_vertices = 50;
  dcfg.num_timestamps = 2;
  dcfg.base_edges = 100;
  dcfg.normal_edges_per_step = 20;
  dcfg.burst_size = 5;
  auto dg = std::move(gen::GenerateDynamic(dcfg)).value();
  EvolvingGnn model;
  EXPECT_FALSE(model.Run(dg).ok());
}

// SageLayer runs only the mean and max-pool aggregators; any other name is
// a config error, not a silent mean model.
TEST(GnnConfigTest, UnknownAggregatorRejected) {
  GnnConfig config;
  config.dim = 8;
  config.feature_dim = 8;
  config.batches_per_epoch = 2;
  config.aggregator = "sum";
  auto emb = GraphSage(config).Embed(SmallGraph());
  ASSERT_FALSE(emb.ok());
  EXPECT_EQ(emb.status().code(), StatusCode::kInvalidArgument);

  gen::DynamicConfig dcfg;
  dcfg.num_vertices = 50;
  dcfg.num_timestamps = 3;
  dcfg.base_edges = 100;
  dcfg.normal_edges_per_step = 20;
  dcfg.burst_size = 5;
  auto dg = std::move(gen::GenerateDynamic(dcfg)).value();
  for (const char* name : {"sum", "Mean"}) {
    EvolvingGnn::Config cfg;
    cfg.gnn = config;
    cfg.gnn.aggregator = name;
    auto scores = EvolvingGnn(cfg).Run(dg);
    ASSERT_FALSE(scores.ok()) << name;
    EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(BayesianTest, CorrectionPullsRelatedEntitiesTogether) {
  Rng rng(9);
  const size_t n = 60;
  const size_t d = 8;
  nn::Matrix base = nn::Matrix::Gaussian(n, d, 1.0f, rng);
  // Two knowledge groups: vertices 0..29 and 30..59.
  std::vector<VertexId> vertices(n);
  std::iota(vertices.begin(), vertices.end(), 0);
  std::vector<uint32_t> groups(n);
  for (size_t i = 0; i < n; ++i) groups[i] = i < 30 ? 0 : 1;

  BayesianCorrection::Config cfg;
  cfg.epochs = 2;
  cfg.pairs_per_epoch = 4000;
  BayesianCorrection model(cfg);
  auto corrected = std::move(model.Correct(base, vertices, groups)).value();

  auto mean_dist = [&](const nn::Matrix& emb, bool same_group) {
    double acc = 0;
    int count = 0;
    for (size_t i = 0; i < n; i += 3) {
      for (size_t j = i + 1; j < n; j += 3) {
        if ((groups[i] == groups[j]) != same_group) continue;
        double dist = 0;
        for (size_t k = 0; k < d; ++k) {
          const double diff = emb.At(i, k) - emb.At(j, k);
          dist += diff * diff;
        }
        acc += std::sqrt(dist);
        ++count;
      }
    }
    return acc / count;
  };
  const double within_before = mean_dist(base, true);
  const double within_after = mean_dist(corrected, true);
  const double across_after = mean_dist(corrected, false);
  EXPECT_LT(within_after, within_before);
  EXPECT_LT(within_after, across_after);
}

TEST(BayesianTest, MismatchedInputRejected) {
  nn::Matrix base(4, 2);
  BayesianCorrection model;
  EXPECT_FALSE(model.Correct(base, {0, 1}, {0}).ok());
}

TEST(AutoencoderTest, DaeAndVaeScoreInteractedItemsHigher) {
  // 40 users over 30 items with block structure: users < 20 like items
  // < 15, the rest like the others.
  const size_t num_items = 30;
  std::vector<std::vector<uint32_t>> interactions;
  Rng rng(13);
  for (int u = 0; u < 40; ++u) {
    std::vector<uint32_t> items;
    const uint32_t base = u < 20 ? 0 : 15;
    for (int k = 0; k < 6; ++k) {
      items.push_back(base + static_cast<uint32_t>(rng.Uniform(15)));
    }
    interactions.push_back(items);
  }
  for (bool variational : {false, true}) {
    InteractionAutoencoder::Config cfg;
    cfg.hidden = 16;
    cfg.epochs = 30;
    cfg.variational = variational;
    InteractionAutoencoder model(num_items, cfg);
    model.Train(interactions);
    // A block-0 user should score block-0 items above block-1 items.
    const auto scores = model.Score(interactions[0]);
    double block0 = 0, block1 = 0;
    for (size_t i = 0; i < 15; ++i) block0 += scores[i];
    for (size_t i = 15; i < 30; ++i) block1 += scores[i];
    EXPECT_GT(block0, block1) << model.name();
  }
}

TEST(FeatureMatrixTest, ShapeAndStandardization) {
  const AttributedGraph& g = SmallTaobao();
  nn::Matrix x = BuildFeatureMatrix(g, 8);
  EXPECT_EQ(x.rows(), g.num_vertices());
  EXPECT_EQ(x.cols(), 8u);
  // Columns are standardized: mean ~0, variance ~1 (or exactly 0 for
  // constant columns).
  for (size_t j = 0; j < 8; ++j) {
    double mean = 0, var = 0;
    for (size_t i = 0; i < x.rows(); ++i) mean += x.At(i, j);
    mean /= x.rows();
    for (size_t i = 0; i < x.rows(); ++i) {
      const double d = x.At(i, j) - mean;
      var += d * d;
    }
    var /= x.rows();
    EXPECT_NEAR(mean, 0.0, 1e-3) << "col " << j;
    EXPECT_TRUE(std::abs(var - 1.0) < 0.05 || var < 1e-6) << "col " << j;
  }
  // Vertices with different attributes get different rows.
  bool any_diff = false;
  for (size_t j = 0; j < 8 && !any_diff; ++j) {
    if (x.At(0, j) != x.At(x.rows() - 1, j)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace algo
}  // namespace aligraph
