// Tests for the operator layer: AGGREGATE / COMBINE forward + backward
// (algo::SageLayer, mean and max-pool, on hand-computed values) and the
// per-mini-batch hop-embedding materialization cache of Table 5.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "algo/gnn.h"
#include "nn/matrix.h"
#include "ops/hop_cache.h"

namespace aligraph {
namespace ops {
namespace {

using nn::Matrix;

Matrix FromValues(size_t rows, size_t cols, std::vector<float> vals) {
  Matrix m(rows, cols);
  std::copy(vals.begin(), vals.end(), m.data());
  return m;
}

// A SageLayer draws its [2 * in, out] weight with Matrix::Xavier from the
// Rng it is built with, so a twin Rng hands the test W.
constexpr uint64_t kWeightSeed = 5;
constexpr size_t kIn = 2;

Matrix LayerWeight() {
  Rng rng(kWeightSeed);
  return Matrix::Xavier(2 * kIn, 1, rng);
}

// batch=2, fan=2, in=2 with a linear top (out=1, no ReLU) and dY = 1, so
// dInput row i is W^T: dSelf gets W[0..in), the aggregate W[in..2in).
struct SageCase {
  Matrix self = FromValues(2, kIn, {-1, -2, -3, -4});
  algo::SageLayer::Cache cache;
  std::pair<Matrix, Matrix> grads;

  SageCase(bool maxpool, const Matrix& neighbors) {
    Rng rng(kWeightSeed);
    algo::SageLayer layer(kIn, 1, maxpool, rng, /*relu=*/false);
    layer.Forward(self, neighbors, 2, &cache);
    Matrix dy(2, 1);
    dy.Fill(1.0f);
    grads = layer.Backward(cache, dy);
  }
};

TEST(SageLayerTest, MeanBackwardDistributesEvenly) {
  SageCase c(/*maxpool=*/false, FromValues(4, kIn, {1, 2, 3, 4, 5, 6, 7, 8}));
  // Row i of the input is [self | mean of its two neighbors].
  const Matrix input = FromValues(2, 2 * kIn, {-1, -2, 2, 3, -3, -4, 6, 7});
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(c.cache.input.data()[i], input.data()[i]) << i;
  }
  const Matrix w = LayerWeight();
  const auto& [dself, dneigh] = c.grads;
  ASSERT_EQ(dneigh.rows(), 4u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t j = 0; j < kIn; ++j) EXPECT_EQ(dself.At(r, j), w.At(j, 0));
  }
  // Every fan slot gets half of the aggregate's gradient.
  for (size_t e = 0; e < 4; ++e) {
    for (size_t j = 0; j < kIn; ++j) {
      EXPECT_EQ(dneigh.At(e, j), 0.5f * w.At(kIn + j, 0)) << e << "," << j;
    }
  }
}

TEST(SageLayerTest, MaxPoolBackwardRoutesToArgmax) {
  // Per column, the first strict maximum wins: root 0 takes slot 1 in
  // column 0 and slot 0 in column 1; root 1 ties in column 0 and keeps
  // slot 0.
  SageCase c(/*maxpool=*/true, FromValues(4, kIn, {1, 4, 3, 2, 5, 6, 5, 8}));
  const Matrix input = FromValues(2, 2 * kIn, {-1, -2, 3, 4, -3, -4, 5, 8});
  for (size_t i = 0; i < input.size(); ++i) {
    EXPECT_EQ(c.cache.input.data()[i], input.data()[i]) << i;
  }
  EXPECT_EQ(c.cache.argmax, (std::vector<uint32_t>{1, 0, 0, 1}));
  const Matrix w = LayerWeight();
  const auto& [dself, dneigh] = c.grads;
  ASSERT_EQ(dneigh.rows(), 4u);
  EXPECT_EQ(dself.At(1, 1), w.At(1, 0));
  // Slot rows: root 0 = {0, 1}, root 1 = {2, 3}. The winner of each
  // column takes the aggregate's whole gradient; the loser gets zero.
  const float g0 = w.At(kIn, 0);
  const float g1 = w.At(kIn + 1, 0);
  const Matrix expected = FromValues(4, kIn, {0, g1, g0, 0, g0, 0, 0, g1});
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(dneigh.data()[i], expected.data()[i]) << i;
  }
}

TEST(HopCacheTest, MissThenHit) {
  HopEmbeddingCache cache(3);
  EXPECT_TRUE(cache.Lookup(1, 42).empty());
  const float row[] = {1, 2, 3};
  cache.Insert(1, 42, row);
  auto hit = cache.Lookup(1, 42);
  ASSERT_EQ(hit.size(), 3u);
  EXPECT_FLOAT_EQ(hit[1], 2.0f);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(HopCacheTest, HopsAreDistinctKeys) {
  HopEmbeddingCache cache(1);
  const float a[] = {1.0f};
  const float b[] = {2.0f};
  cache.Insert(1, 7, a);
  cache.Insert(2, 7, b);
  EXPECT_FLOAT_EQ(cache.Lookup(1, 7)[0], 1.0f);
  EXPECT_FLOAT_EQ(cache.Lookup(2, 7)[0], 2.0f);
}

TEST(HopCacheTest, InsertOverwrites) {
  HopEmbeddingCache cache(1);
  const float a[] = {1.0f};
  const float b[] = {9.0f};
  cache.Insert(0, 3, a);
  cache.Insert(0, 3, b);
  EXPECT_FLOAT_EQ(cache.Lookup(0, 3)[0], 9.0f);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(HopCacheTest, ResetClearsEverything) {
  HopEmbeddingCache cache(1);
  const float a[] = {1.0f};
  cache.Insert(0, 3, a);
  cache.Lookup(0, 3);
  cache.Reset();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_TRUE(cache.Lookup(0, 3).empty());
}

TEST(HopCacheTest, HitRateReflectsSharing) {
  // Simulating a mini-batch where each vertex appears 10 times: 1 miss and
  // 9 hits per vertex -> 90% hit rate, the effect behind Table 5.
  HopEmbeddingCache cache(2);
  const float row[] = {1, 2};
  for (VertexId v = 0; v < 20; ++v) {
    for (int rep = 0; rep < 10; ++rep) {
      if (cache.Lookup(1, v).empty()) cache.Insert(1, v, row);
    }
  }
  EXPECT_NEAR(cache.HitRate(), 0.9, 1e-9);
}

}  // namespace
}  // namespace ops
}  // namespace aligraph
