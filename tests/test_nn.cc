// Tests for the neural substrate: matrix ops, layers with finite-difference
// gradient checks, optimizers, embeddings, walks and skip-gram training.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "gen/powerlaw.h"
#include "gen/taobao.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "nn/skipgram.h"
#include "nn/walks.h"
#include "sampling/sampler.h"

namespace aligraph {
namespace nn {
namespace {

TEST(MatrixTest, MatMulHandValues) {
  Matrix a(2, 3), b(3, 2);
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  Matrix c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154);
}

// Each output element summed over k in ascending order from +0, no skips:
// the order MatMul's register tiles must reproduce bit for bit.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      c.At(i, j) = acc;
    }
  }
  return c;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// The shapes cover the 4 x 16 register tile's edges: rows below, at and
// past a multiple of 4; columns below 16 (the zero-padded narrow path), at
// 16 and past each multiple of 16 (an overlapping last tile).
TEST(MatrixTest, MatMulBitEqualsNaiveReference) {
  Rng rng(7);
  for (size_t m : {0, 1, 2, 3, 4, 5, 6, 41}) {
    for (size_t k : {0, 1, 16, 32, 64}) {
      for (size_t n : {1, 7, 8, 15, 16, 17, 30, 31, 32, 33, 48}) {
        Matrix a = Matrix::Gaussian(m, k, 1.0f, rng);
        const Matrix b = Matrix::Gaussian(k, n, 1.0f, rng);
        // Every third row all zero; elsewhere exact zeros and -0.0f.
        for (size_t i = 0; i < m; ++i) {
          for (size_t p = 0; p < k; ++p) {
            if (i % 3 == 2) {
              a.At(i, p) = 0.0f;
            } else if (rng.Uniform(4) == 0) {
              a.At(i, p) = 0.0f;
            } else if (rng.Uniform(8) == 0) {
              a.At(i, p) = -0.0f;
            }
          }
        }
        EXPECT_TRUE(SameBits(MatMul(a, b), NaiveMatMul(a, b)))
            << m << "x" << k << " * " << k << "x" << n;
      }
    }
  }
}

TEST(MatrixTest, MatMulZeroTimesInfinityIsNan) {
  // Plain IEEE: a zero in `a` does not mask a non-finite value in `b`.
  Matrix a(1, 2), b(2, 1);
  a.At(0, 0) = 0.0f;
  a.At(0, 1) = 1.0f;
  b.At(0, 0) = std::numeric_limits<float>::infinity();
  b.At(1, 0) = 2.0f;
  EXPECT_TRUE(std::isnan(MatMul(a, b).At(0, 0)));
}

TEST(MatrixTest, AxpyBitEqualsScalarLoop) {
  Rng rng(11);
  for (size_t n = 0; n <= 13; ++n) {
    const Matrix x = Matrix::Gaussian(1, n, 1.0f, rng);
    Matrix y = Matrix::Gaussian(1, n, 1.0f, rng);
    Matrix expected = y;
    const float alpha = 0.37f;
    for (size_t j = 0; j < n; ++j) expected.At(0, j) += alpha * x.At(0, j);
    Axpy(alpha, x.Row(0), y.Row(0));
    EXPECT_TRUE(SameBits(y, expected)) << "n=" << n;
  }
}

TEST(MatrixTest, ReluBitEqualsStdMax) {
  Rng rng(17);
  for (size_t n = 0; n <= 13; ++n) {
    Matrix a = Matrix::Gaussian(1, n, 1.0f, rng);
    if (n > 1) a.At(0, 1) = -0.0f;
    if (n > 2) a.At(0, n - 1) = std::numeric_limits<float>::quiet_NaN();
    if (n > 5) a.At(0, 5) = -std::numeric_limits<float>::infinity();
    Matrix expected = a;
    for (size_t j = 0; j < n; ++j) {
      expected.At(0, j) = std::max(expected.At(0, j), 0.0f);
    }
    ReluInPlace(a);
    EXPECT_TRUE(SameBits(a, expected)) << "n=" << n;
  }
}

TEST(MatrixTest, ReluBackwardBitEqualsScalarLoop) {
  // Lengths below, at and past multiples of the 8-lane kernel, with NaN,
  // +-0 and +-Inf in the outputs and NaN and -0 in the gradients.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan, -0.0f, 0.0f, inf, -inf, -nan};
  Rng rng(19);
  for (size_t rows : {1, 3}) {
    for (size_t n = 0; n <= 19; ++n) {
      Matrix out = Matrix::Gaussian(rows, n, 1.0f, rng);
      Matrix grad = Matrix::Gaussian(rows, n, 1.0f, rng);
      for (size_t i = 0; i < out.size(); ++i) {
        if (rng.Uniform(3) == 0) out.data()[i] = specials[rng.Uniform(6)];
        if (rng.Uniform(4) == 0) grad.data()[i] = specials[rng.Uniform(2)];
      }
      Matrix expected = grad;
      for (size_t i = 0; i < expected.size(); ++i) {
        if (out.data()[i] <= 0.0f) expected.data()[i] = 0.0f;
      }
      EXPECT_TRUE(SameBits(ReluBackward(out, grad), expected))
          << rows << "x" << n;
    }
  }
}

// Linear::BackwardAt's dW = X^T dY and dX = dY W^T go through Transpose
// and the tiled MatMul; both must equal the naive k-ascending sums bit for
// bit, also on ragged shapes: fewer than 16 columns, rows not a multiple
// of 4.
TEST(MatrixTest, TransposedProductsBitEqualNaiveReference) {
  Rng rng(13);
  for (size_t n : {1, 3, 6, 13}) {
    for (size_t in : {1, 5, 7, 9, 17}) {
      for (size_t out : {1, 3, 7, 8, 11, 17}) {
        Matrix x = Matrix::Gaussian(n, in, 1.0f, rng);
        for (size_t i = 0; i < n; ++i) {
          if (rng.Uniform(3) == 0) x.At(i, rng.Uniform(in)) = 0.0f;
        }
        const Matrix dy = Matrix::Gaussian(n, out, 1.0f, rng);

        const Matrix xt = Transpose(x);
        ASSERT_EQ(xt.rows(), in);
        ASSERT_EQ(xt.cols(), n);
        for (size_t i = 0; i < n; ++i) {
          for (size_t j = 0; j < in; ++j) {
            EXPECT_EQ(std::memcmp(&xt.Row(j)[i], &x.Row(i)[j], sizeof(float)),
                      0);
          }
        }

        Linear layer(in, out, rng);
        const Matrix dx = layer.BackwardAt(x, dy);
        const std::string shape = std::to_string(n) + "x" +
                                  std::to_string(in) + " -> " +
                                  std::to_string(out);
        EXPECT_TRUE(SameBits(layer.weight().grad, NaiveMatMul(xt, dy)))
            << "dW " << shape;
        EXPECT_TRUE(SameBits(dx, NaiveMatMul(dy, Transpose(
                                                     layer.weight().value))))
            << "dX " << shape;
      }
    }
  }
}

TEST(MatrixTest, ElementwiseOps) {
  Matrix a(1, 3);
  a.At(0, 0) = -1;
  a.At(0, 1) = 0;
  a.At(0, 2) = 2;
  Matrix r = a;
  ReluInPlace(r);
  EXPECT_FLOAT_EQ(r.At(0, 0), 0);
  EXPECT_FLOAT_EQ(r.At(0, 2), 2);
  Matrix t = a;
  TanhInPlace(t);
  EXPECT_NEAR(t.At(0, 0), std::tanh(-1.0f), 1e-6);
  Matrix s = a;
  SigmoidInPlace(s);
  EXPECT_NEAR(s.At(0, 1), 0.5f, 1e-6);
}

TEST(MatrixTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Matrix m = Matrix::Gaussian(5, 7, 2.0f, rng);
  SoftmaxRows(m);
  for (size_t i = 0; i < 5; ++i) {
    float sum = 0;
    for (float v : m.Row(i)) {
      EXPECT_GT(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(MatrixTest, L2NormalizeRows) {
  Matrix m(2, 2);
  m.At(0, 0) = 3;
  m.At(0, 1) = 4;
  // Row 1 stays zero (no NaN).
  L2NormalizeRows(m);
  EXPECT_NEAR(m.At(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(m.At(0, 1), 0.8f, 1e-6);
  EXPECT_FLOAT_EQ(m.At(1, 0), 0.0f);
}

TEST(MatrixTest, ConcatCols) {
  Matrix a(1, 2), b(1, 3);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  b.At(0, 0) = 3;
  b.At(0, 2) = 5;
  Matrix c = ConcatCols(a, b);
  ASSERT_EQ(c.cols(), 5u);
  EXPECT_FLOAT_EQ(c.At(0, 1), 2);
  EXPECT_FLOAT_EQ(c.At(0, 2), 3);
  EXPECT_FLOAT_EQ(c.At(0, 4), 5);
}

// Finite-difference gradient check of Linear through a scalar loss
// L = sum(Y). dL/dW and dL/dX must match numerical derivatives.
TEST(LinearTest, GradientCheck) {
  Rng rng(5);
  Linear layer(3, 2, rng);
  Matrix x = Matrix::Gaussian(4, 3, 1.0f, rng);
  Matrix y = layer.ForwardAt(x);
  Matrix ones(y.rows(), y.cols());
  ones.Fill(1.0f);
  Matrix dx = layer.BackwardAt(x, ones);

  const float eps = 1e-3f;
  auto loss = [&](const Matrix& input) {
    Matrix out = layer.ForwardAt(input);
    float acc = 0;
    for (size_t i = 0; i < out.size(); ++i) acc += out.data()[i];
    return acc;
  };
  for (size_t i = 0; i < x.size(); ++i) {
    Matrix xp = x;
    xp.data()[i] += eps;
    Matrix xm = x;
    xm.data()[i] -= eps;
    const float num = (loss(xp) - loss(xm)) / (2 * eps);
    EXPECT_NEAR(dx.data()[i], num, 5e-2) << "dX[" << i << "]";
  }
  // Weight gradient: analytic vs numerical on a few entries.
  Param& w = layer.weight();
  for (size_t i = 0; i < 3; ++i) {
    const float analytic = w.grad.data()[i];
    const float orig = w.value.data()[i];
    w.value.data()[i] = orig + eps;
    const float lp = loss(x);
    w.value.data()[i] = orig - eps;
    const float lm = loss(x);
    w.value.data()[i] = orig;
    EXPECT_NEAR(analytic, (lp - lm) / (2 * eps), 5e-2) << "dW[" << i << "]";
  }
}

// ForwardAt adds the bias in the GEMM's store; the sum and then + b[j] must
// give the bits of MatMul followed by AddBiasRow. Serve shapes (4x32,
// 40x32 and 4x64 inputs into 32 outputs) and ragged ones, narrow included.
TEST(LinearTest, ForwardAtFusedBiasBitEqualsMatMulThenAddBiasRow) {
  struct Shape {
    size_t rows, in, out;
  };
  Rng rng(23);
  for (const Shape& s : {Shape{4, 32, 32}, Shape{40, 32, 32},
                         Shape{4, 64, 32}, Shape{1, 7, 5}, Shape{3, 17, 15},
                         Shape{5, 33, 17}, Shape{6, 32, 48},
                         Shape{41, 16, 31}, Shape{2, 0, 16}}) {
    Linear layer(s.in, s.out, rng);
    layer.bias().value = Matrix::Gaussian(1, s.out, 1.0f, rng);
    layer.bias().value.At(0, 0) = -0.0f;
    const Matrix x = Matrix::Gaussian(s.rows, s.in, 1.0f, rng);
    Matrix expected = MatMul(x, layer.weight().value);
    AddBiasRow(expected, layer.bias().value);
    EXPECT_TRUE(SameBits(layer.ForwardAt(x), expected))
        << s.rows << "x" << s.in << " -> " << s.out;
  }
}

TEST(LinearTest, ZeroInputDoesNotMaskNonFiniteGradient) {
  // dW = X^T dY under plain IEEE: 0 * Inf is NaN, and it must reach the
  // gradient instead of being skipped as a zero input.
  Rng rng(3);
  Linear layer(2, 1, rng);
  Matrix x(1, 2);
  x.At(0, 0) = 0.0f;
  x.At(0, 1) = 1.0f;
  Matrix dy(1, 1);
  dy.At(0, 0) = std::numeric_limits<float>::infinity();
  layer.BackwardAt(x, dy);
  EXPECT_TRUE(std::isnan(layer.weight().grad.At(0, 0)));
  EXPECT_TRUE(std::isinf(layer.weight().grad.At(1, 0)));
}

TEST(BceTest, PerfectPredictionsHaveLowLoss) {
  std::vector<float> logits{10.0f, -10.0f};
  std::vector<float> labels{1.0f, 0.0f};
  std::vector<float> grad(2);
  const float loss = BceWithLogits(logits, labels, grad);
  EXPECT_LT(loss, 1e-3f);
  EXPECT_NEAR(grad[0], 0.0f, 1e-3f);
}

TEST(BceTest, GradientSignPushesTowardLabel) {
  std::vector<float> logits{0.0f};
  std::vector<float> grad(1);
  std::vector<float> pos{1.0f};
  BceWithLogits(logits, pos, grad);
  EXPECT_LT(grad[0], 0.0f);  // increase logit for positive label
  std::vector<float> neg{0.0f};
  BceWithLogits(logits, neg, grad);
  EXPECT_GT(grad[0], 0.0f);
}

TEST(SoftmaxXentTest, UniformLogitsGiveLogC) {
  Matrix logits(2, 4);  // zeros
  std::vector<uint32_t> labels{0, 3};
  Matrix grad;
  const float loss = SoftmaxXent(logits, labels, &grad);
  EXPECT_NEAR(loss, std::log(4.0f), 1e-4);
  // Gradient at the label entry is (p - 1)/n, elsewhere p/n.
  EXPECT_NEAR(grad.At(0, 0), (0.25f - 1.0f) / 2, 1e-5);
  EXPECT_NEAR(grad.At(0, 1), 0.25f / 2, 1e-5);
}

template <typename Opt>
float MinimizeQuadratic(int steps) {
  // Minimize ||w||^2 from w = (3, -2): grad = 2w. Initial loss is 13.
  Rng rng(7);
  Param p(Matrix(1, 2));
  p.value.At(0, 0) = 3.0f;
  p.value.At(0, 1) = -2.0f;
  Opt opt;
  for (int i = 0; i < steps; ++i) {
    p.grad = p.value;
    p.grad *= 2.0f;
    opt.Step(p);
  }
  return p.value.SquaredNorm();
}

TEST(OptimizerTest, SgdConverges) {
  EXPECT_LT(MinimizeQuadratic<Sgd>(400), 1e-4f);
}
TEST(OptimizerTest, AdaGradConverges) {
  // AdaGrad's effective step decays ~1/sqrt(t); it converges slowly but the
  // loss must drop far below the initial 13.
  EXPECT_LT(MinimizeQuadratic<AdaGrad>(4000), 1.0f);
}
TEST(OptimizerTest, AdamConverges) {
  EXPECT_LT(MinimizeQuadratic<Adam>(3000), 1e-3f);
}

TEST(OptimizerTest, StepClearsGradients) {
  Param p(Matrix(1, 2));
  p.grad.Fill(1.0f);
  Sgd opt;
  opt.Step(p);
  EXPECT_FLOAT_EQ(p.grad.At(0, 0), 0.0f);
}

TEST(EmbeddingTableTest, LookupGathersRows) {
  Rng rng(9);
  EmbeddingTable table(10, 4, rng);
  std::vector<uint32_t> ids{3, 3, 7};
  Matrix out = table.Lookup(ids);
  ASSERT_EQ(out.rows(), 3u);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_FLOAT_EQ(out.At(0, j), table.Row(3)[j]);
    EXPECT_FLOAT_EQ(out.At(1, j), table.Row(3)[j]);
    EXPECT_FLOAT_EQ(out.At(2, j), table.Row(7)[j]);
  }
}

TEST(EmbeddingTableTest, SgdUpdateMovesRow) {
  Rng rng(11);
  EmbeddingTable table(4, 2, rng);
  const float before = table.Row(1)[0];
  std::vector<float> grad{1.0f, 0.0f};
  table.SgdUpdate(1, grad, 0.5f);
  EXPECT_FLOAT_EQ(table.Row(1)[0], before - 0.5f);
}

AttributedGraph WalkGraph() {
  gen::ChungLuConfig cfg;
  cfg.num_vertices = 300;
  cfg.avg_degree = 6;
  cfg.seed = 15;
  return std::move(gen::ChungLu(cfg)).value();
}

TEST(WalksTest, UniformWalksFollowEdges) {
  const AttributedGraph g = WalkGraph();
  WalkConfig wc;
  wc.walks_per_vertex = 1;
  wc.walk_length = 6;
  const auto walks = UniformWalks(g, wc);
  ASSERT_FALSE(walks.empty());
  for (const auto& walk : walks) {
    EXPECT_GE(walk.size(), 2u);
    EXPECT_LE(walk.size(), 6u);
    for (size_t i = 0; i + 1 < walk.size(); ++i) {
      bool found = false;
      for (const Neighbor& nb : g.OutNeighbors(walk[i])) {
        if (nb.dst == walk[i + 1]) found = true;
      }
      EXPECT_TRUE(found) << "walk step not an edge";
    }
  }
}

TEST(WalksTest, Node2VecWalksValid) {
  const AttributedGraph g = WalkGraph();
  WalkConfig wc;
  wc.walks_per_vertex = 1;
  wc.walk_length = 5;
  const auto walks = Node2VecWalks(g, wc, 0.5, 2.0);
  ASSERT_FALSE(walks.empty());
  for (const auto& walk : walks) {
    for (size_t i = 0; i + 1 < walk.size(); ++i) {
      bool found = false;
      for (const Neighbor& nb : g.OutNeighbors(walk[i])) {
        if (nb.dst == walk[i + 1]) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(WalksTest, MetapathWalksRespectTypes) {
  auto taobao = std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  const EdgeType click = taobao.schema().EdgeTypeId("click").value();
  const EdgeType co = taobao.schema().EdgeTypeId("co_occur").value();
  std::vector<VertexId> starts;
  for (VertexId v = 0; v < taobao.num_vertices(); ++v) {
    if (!taobao.OutNeighbors(v, click).empty()) starts.push_back(v);
    if (starts.size() > 50) break;
  }
  ASSERT_FALSE(starts.empty());
  WalkConfig wc;
  wc.walks_per_vertex = 1;
  wc.walk_length = 4;
  const auto walks = MetapathWalks(taobao, wc, {click, co}, starts);
  for (const auto& walk : walks) {
    for (size_t i = 0; i + 1 < walk.size(); ++i) {
      const EdgeType expect_type = (i % 2 == 0) ? click : co;
      bool found = false;
      for (const Neighbor& nb : taobao.OutNeighbors(walk[i], expect_type)) {
        if (nb.dst == walk[i + 1]) found = true;
      }
      EXPECT_TRUE(found) << "metapath violated at step " << i;
    }
  }
}

TEST(WalksTest, LayerWalksStayInLayer) {
  auto taobao = std::move(gen::Taobao(gen::TaobaoSmallConfig(0.05))).value();
  const EdgeType buy = taobao.schema().EdgeTypeId("buy").value();
  WalkConfig wc;
  wc.walks_per_vertex = 1;
  wc.walk_length = 4;
  const auto walks = LayerWalks(taobao, wc, buy);
  for (const auto& walk : walks) {
    for (size_t i = 0; i + 1 < walk.size(); ++i) {
      bool found = false;
      for (const Neighbor& nb : taobao.OutNeighbors(walk[i], buy)) {
        if (nb.dst == walk[i + 1]) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(SkipGramTest, TrainingReducesLoss) {
  const AttributedGraph g = WalkGraph();
  WalkConfig wc;
  wc.walks_per_vertex = 2;
  wc.walk_length = 8;
  const auto walks = UniformWalks(g, wc);

  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  NegativeSampler negs(g, all);

  SkipGramConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 1;
  SkipGramModel model(g.num_vertices(), cfg);
  const float first = model.TrainWalks(walks, negs);
  SkipGramConfig cfg5 = cfg;
  cfg5.epochs = 5;
  SkipGramModel model5(g.num_vertices(), cfg5);
  const float fifth = model5.TrainWalks(walks, negs);
  EXPECT_LT(fifth, first);
}

TEST(SkipGramTest, ConnectedPairScoresAboveRandomPair) {
  const AttributedGraph g = WalkGraph();
  WalkConfig wc;
  wc.walks_per_vertex = 4;
  wc.walk_length = 10;
  const auto walks = UniformWalks(g, wc);
  std::vector<VertexId> all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  NegativeSampler negs(g, all);
  SkipGramConfig cfg;
  cfg.dim = 16;
  cfg.epochs = 3;
  SkipGramModel model(g.num_vertices(), cfg);
  model.TrainWalks(walks, negs);

  // Average score over edges vs over random pairs.
  Rng rng(21);
  double edge_score = 0, rand_score = 0;
  int edges = 0;
  for (VertexId v = 0; v < g.num_vertices() && edges < 500; ++v) {
    for (const Neighbor& nb : g.OutNeighbors(v)) {
      edge_score += Dot(model.embeddings().Row(v),
                        model.embeddings().Row(nb.dst));
      ++edges;
      if (edges >= 500) break;
    }
  }
  for (int i = 0; i < 500; ++i) {
    const VertexId a = static_cast<VertexId>(rng.Uniform(g.num_vertices()));
    const VertexId b = static_cast<VertexId>(rng.Uniform(g.num_vertices()));
    rand_score += Dot(model.embeddings().Row(a), model.embeddings().Row(b));
  }
  EXPECT_GT(edge_score / edges, rand_score / 500 + 0.01);
}

}  // namespace
}  // namespace nn
}  // namespace aligraph
