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

// Eight floats in one vector. An AVX2 build holds one in a ymm register; a
// baseline x86-64 build (or another target) splits each operation into
// narrower lanes. Either way it is lane-wise the same IEEE arithmetic as the
// scalar code. F8 values never cross a function boundary: passing or
// returning one by value would change the ABI between the two builds.
typedef float F8 __attribute__((vector_size(32)));

// One kernel source, two builds: GCC emits an AVX2 clone and a baseline
// clone and an ifunc picks one when the program loads. AVX2 alone does not
// enable FMA, so each multiply and add stays separately rounded in both.
#if defined(__x86_64__)
#define ALIGRAPH_AVX2_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define ALIGRAPH_AVX2_CLONES
#endif

constexpr size_t kTileRows = 4;
constexpr size_t kTileCols = 16;

// C[i][j] = sum over p ascending of A[i][p] * B[p][j], from +0, then
// + bias[j] when bias is not null; A is [m,k], B [k,n] and C [m,n], all
// dense row-major, with m >= 1 and n >= kTileCols. Register tiles of 4 rows
// x 16 columns (eight 8-float accumulators). A ragged column edge is
// covered by a last tile that overlaps its neighbour, a ragged row edge by
// the last four rows, or by repeating the last row when m < 4: a cell
// computed twice gets the same bits both times.
ALIGRAPH_AVX2_CLONES
void GemmTiles(const float* a, const float* b, const float* bias, float* c,
               size_t m, size_t k, size_t n) {
  for (size_t i0 = 0; i0 < m; i0 += kTileRows) {
    const size_t i = std::min(i0, m >= kTileRows ? m - kTileRows : 0);
    const float* ar[kTileRows];
    float* cr[kTileRows];
    for (size_t r = 0; r < kTileRows; ++r) {
      const size_t row = std::min(i + r, m - 1);
      ar[r] = a + row * k;
      cr[r] = c + row * n;
    }
    for (size_t j0 = 0; j0 < n; j0 += kTileCols) {
      const size_t j = std::min(j0, n - kTileCols);
      F8 c00 = {}, c01 = {}, c10 = {}, c11 = {};
      F8 c20 = {}, c21 = {}, c30 = {}, c31 = {};
      for (size_t p = 0; p < k; ++p) {
        F8 b0, b1;
        std::memcpy(&b0, b + p * n + j, sizeof(b0));
        std::memcpy(&b1, b + p * n + j + 8, sizeof(b1));
        c00 += ar[0][p] * b0;
        c01 += ar[0][p] * b1;
        c10 += ar[1][p] * b0;
        c11 += ar[1][p] * b1;
        c20 += ar[2][p] * b0;
        c21 += ar[2][p] * b1;
        c30 += ar[3][p] * b0;
        c31 += ar[3][p] * b1;
      }
      if (bias != nullptr) {
        F8 d0, d1;
        std::memcpy(&d0, bias + j, sizeof(d0));
        std::memcpy(&d1, bias + j + 8, sizeof(d1));
        c00 += d0;
        c01 += d1;
        c10 += d0;
        c11 += d1;
        c20 += d0;
        c21 += d1;
        c30 += d0;
        c31 += d1;
      }
      std::memcpy(cr[0] + j, &c00, sizeof(c00));
      std::memcpy(cr[0] + j + 8, &c01, sizeof(c01));
      std::memcpy(cr[1] + j, &c10, sizeof(c10));
      std::memcpy(cr[1] + j + 8, &c11, sizeof(c11));
      std::memcpy(cr[2] + j, &c20, sizeof(c20));
      std::memcpy(cr[2] + j + 8, &c21, sizeof(c21));
      std::memcpy(cr[3] + j, &c30, sizeof(c30));
      std::memcpy(cr[3] + j + 8, &c31, sizeof(c31));
    }
  }
}

// g[i] = out[i] <= 0 ? 0 : grad[i], eight lanes at a time. A NaN output
// compares false and passes its gradient; a -0 output compares true.
ALIGRAPH_AVX2_CLONES
void ReluMask(const float* out, const float* grad, float* g, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    F8 o, d;
    std::memcpy(&o, out + i, sizeof(o));
    std::memcpy(&d, grad + i, sizeof(d));
    const F8 r = o <= F8{} ? F8{} : d;
    std::memcpy(g + i, &r, sizeof(r));
  }
  for (; i < n; ++i) g[i] = out[i] <= 0.0f ? 0.0f : grad[i];
}

Matrix Gemm(const Matrix& a, const Matrix& b, const float* bias) {
  ALIGRAPH_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  Matrix c(m, n);
  if (m == 0 || n == 0) return c;
  if (n >= kTileCols) {
    GemmTiles(a.data(), b.data(), bias, c.data(), m, k, n);
    return c;
  }
  // Narrower than a tile: run on b and the bias zero-padded to a tile's
  // width, then keep the first n columns of each row.
  std::vector<float> padded((k + 1) * kTileCols, 0.0f);
  for (size_t p = 0; p < k; ++p) {
    std::copy_n(b.Row(p).data(), n, padded.data() + p * kTileCols);
  }
  float* padded_bias = padded.data() + k * kTileCols;
  if (bias != nullptr) std::copy_n(bias, n, padded_bias);
  std::vector<float> wide(m * kTileCols);
  GemmTiles(a.data(), padded.data(), bias != nullptr ? padded_bias : nullptr,
            wide.data(), m, k, kTileCols);
  for (size_t i = 0; i < m; ++i) {
    std::copy_n(wide.data() + i * kTileCols, n, c.Row(i).data());
  }
  return c;
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) { return Gemm(a, b, nullptr); }

Matrix MatMulAddBias(const Matrix& a, const Matrix& b, const Matrix& bias) {
  ALIGRAPH_CHECK_EQ(bias.rows(), 1u);
  ALIGRAPH_CHECK_EQ(bias.cols(), b.cols());
  return Gemm(a, b, bias.data());
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
    const simd::F4 v = simd::Load4(p + i);
    simd::Store4(p + i, v < simd::F4{} ? simd::F4{} : v);
  }
  for (; i < a.size(); ++i) p[i] = std::max(p[i], 0.0f);
}

Matrix ReluBackward(const Matrix& output, const Matrix& grad) {
  ALIGRAPH_CHECK_EQ(output.rows(), grad.rows());
  ALIGRAPH_CHECK_EQ(output.cols(), grad.cols());
  Matrix g(grad.rows(), grad.cols());
  ReluMask(output.data(), grad.data(), g.data(), g.size());
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

}  // namespace nn
}  // namespace aligraph
