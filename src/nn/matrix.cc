#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"

namespace aligraph {
namespace nn {

Matrix Matrix::Xavier(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  const float bound = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (float& v : m.data_) v = (rng.NextFloat() * 2.0f - 1.0f) * bound;
  return m;
}

Matrix Matrix::Gaussian(size_t rows, size_t cols, float stddev, Rng& rng) {
  Matrix m(rows, cols);
  for (float& v : m.data_) {
    v = static_cast<float>(rng.NextGaussian()) * stddev;
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  ALIGRAPH_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  ALIGRAPH_CHECK_EQ(size(), other.size());
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

float Matrix::SquaredNorm() const {
  float acc = 0;
  for (float v : data_) acc += v * v;
  return acc;
}

namespace {

// Four floats in one SIMD register, via the GCC/Clang vector extension: the
// portable way to get SSE / NEON arithmetic out of -O2 without -march, and
// lane-wise the same IEEE operations as the scalar code.
typedef float F4 __attribute__((vector_size(16)));

inline F4 Load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store4(float* p, F4 v) { std::memcpy(p, &v, sizeof(v)); }

// c[r][0..8) = sum over p ascending of a[r][p] * b[p][0..8), each sum
// starting from +0, for the four rows r. Rows may alias (a short last row
// block repeats its final row): aliased rows store identical values.
void Tile4x8(const float* const a[4], const float* b, size_t ldb, size_t k,
             float* const c[4]) {
  F4 c00 = {}, c01 = {}, c10 = {}, c11 = {};
  F4 c20 = {}, c21 = {}, c30 = {}, c31 = {};
  for (size_t p = 0; p < k; ++p) {
    const F4 b0 = Load4(b + p * ldb);
    const F4 b1 = Load4(b + p * ldb + 4);
    const F4 x0 = {a[0][p], a[0][p], a[0][p], a[0][p]};
    const F4 x1 = {a[1][p], a[1][p], a[1][p], a[1][p]};
    const F4 x2 = {a[2][p], a[2][p], a[2][p], a[2][p]};
    const F4 x3 = {a[3][p], a[3][p], a[3][p], a[3][p]};
    c00 += x0 * b0;
    c01 += x0 * b1;
    c10 += x1 * b0;
    c11 += x1 * b1;
    c20 += x2 * b0;
    c21 += x2 * b1;
    c30 += x3 * b0;
    c31 += x3 * b1;
  }
  Store4(c[0], c00);
  Store4(c[0] + 4, c01);
  Store4(c[1], c10);
  Store4(c[1] + 4, c11);
  Store4(c[2], c20);
  Store4(c[2] + 4, c21);
  Store4(c[3], c30);
  Store4(c[3] + 4, c31);
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  ALIGRAPH_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  Matrix c(m, n);
  if (m == 0 || n == 0) return c;
  // Register tiles of 4 rows x 8 columns. A ragged edge is covered by a
  // last tile that overlaps its neighbour (recomputing a cell yields the
  // same bits) or, when the whole matrix is narrower than a tile, by
  // aliased rows and a zero-padded copy of b written to a scratch tile.
  const bool narrow = n < 8;
  std::vector<float> padded;
  const float* bp = b.data();
  size_t ldb = n;
  if (narrow) {
    padded.assign(k * 8, 0.0f);
    for (size_t p = 0; p < k; ++p) {
      std::copy_n(b.Row(p).data(), n, padded.data() + p * 8);
    }
    bp = padded.data();
    ldb = 8;
  }
  float scratch[4][8];
  for (size_t i0 = 0; i0 < m; i0 += 4) {
    const size_t i = std::min(i0, m >= 4 ? m - 4 : 0);
    const float* arow[4];
    float* crow[4];
    for (size_t r = 0; r < 4; ++r) {
      const size_t row = std::min(i + r, m - 1);
      arow[r] = a.Row(row).data();
      crow[r] = narrow ? scratch[r] : c.Row(row).data();
    }
    if (narrow) {
      Tile4x8(arow, bp, ldb, k, crow);
      for (size_t r = 0; r < 4 && i + r < m; ++r) {
        std::copy_n(scratch[r], n, c.Row(i + r).data());
      }
      continue;
    }
    for (size_t j0 = 0; j0 < n; j0 += 8) {
      const size_t j = std::min(j0, n - 8);
      float* cj[4] = {crow[0] + j, crow[1] + j, crow[2] + j, crow[3] + j};
      Tile4x8(arow, bp + j, ldb, k, cj);
    }
  }
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const float* row = a.Row(i).data();
    for (size_t j = 0; j < a.cols(); ++j) t.At(j, i) = row[j];
  }
  return t;
}

void AddBiasRow(Matrix& a, const Matrix& bias) {
  ALIGRAPH_CHECK_EQ(bias.rows(), 1u);
  ALIGRAPH_CHECK_EQ(bias.cols(), a.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    float* row = a.Row(i).data();
    const float* b = bias.Row(0).data();
    for (size_t j = 0; j < a.cols(); ++j) row[j] += b[j];
  }
}

void ReluInPlace(Matrix& a) {
  // std::max(v, 0.0f), four lanes at a time. The scalar form compiles to a
  // compare and branch, which mispredicts on about half of a random-signed
  // activation; the lane select has no branch. NaN and -0 stay as they are.
  float* p = a.data();
  size_t i = 0;
  for (; i + 4 <= a.size(); i += 4) {
    const F4 v = Load4(p + i);
    Store4(p + i, v < F4{} ? F4{} : v);
  }
  for (; i < a.size(); ++i) p[i] = std::max(p[i], 0.0f);
}

Matrix ReluBackward(const Matrix& output, const Matrix& grad) {
  Matrix g = grad;
  for (size_t i = 0; i < g.rows(); ++i) {
    auto out = output.Row(i);
    auto row = g.Row(i);
    for (size_t j = 0; j < row.size(); ++j) {
      if (out[j] <= 0.0f) row[j] = 0.0f;
    }
  }
  return g;
}

void TanhInPlace(Matrix& a) {
  for (size_t i = 0; i < a.rows(); ++i) {
    for (float& v : a.Row(i)) v = std::tanh(v);
  }
}

Matrix TanhBackward(const Matrix& output, const Matrix& grad) {
  Matrix g = grad;
  for (size_t i = 0; i < g.rows(); ++i) {
    auto out = output.Row(i);
    auto row = g.Row(i);
    for (size_t j = 0; j < row.size(); ++j) row[j] *= 1.0f - out[j] * out[j];
  }
  return g;
}

void SigmoidInPlace(Matrix& a) {
  for (size_t i = 0; i < a.rows(); ++i) {
    for (float& v : a.Row(i)) v = Sigmoid(v);
  }
}

void L2NormalizeRows(Matrix& a) {
  for (size_t i = 0; i < a.rows(); ++i) {
    auto row = a.Row(i);
    float norm = 0;
    for (float v : row) norm += v * v;
    norm = std::sqrt(norm);
    if (norm < 1e-12f) continue;
    for (float& v : row) v /= norm;
  }
}

void Softmax(std::span<float> v) {
  float mx = v[0];
  for (float x : v) mx = std::max(mx, x);
  float sum = 0;
  for (float& x : v) {
    x = std::exp(x - mx);
    sum += x;
  }
  for (float& x : v) x /= sum;
}

void SoftmaxRows(Matrix& a) {
  for (size_t i = 0; i < a.rows(); ++i) Softmax(a.Row(i));
}

Matrix ConcatCols(const Matrix& a, const Matrix& b) {
  ALIGRAPH_CHECK_EQ(a.rows(), b.rows());
  Matrix c(a.rows(), a.cols() + b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    auto out = c.Row(i);
    auto ra = a.Row(i);
    auto rb = b.Row(i);
    std::copy(ra.begin(), ra.end(), out.begin());
    std::copy(rb.begin(), rb.end(), out.begin() + ra.size());
  }
  return c;
}

float Dot(std::span<const float> a, std::span<const float> b) {
  ALIGRAPH_CHECK_EQ(a.size(), b.size());
  float acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  ALIGRAPH_CHECK_EQ(x.size(), y.size());
  const F4 a = {alpha, alpha, alpha, alpha};
  size_t i = 0;
  for (; i + 4 <= x.size(); i += 4) {
    Store4(y.data() + i, Load4(y.data() + i) + a * Load4(x.data() + i));
  }
  for (; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace nn
}  // namespace aligraph
