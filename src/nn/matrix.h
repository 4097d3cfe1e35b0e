/// \file matrix.h
/// \brief Dense row-major float32 matrix — the tensor type of AliGraph's
/// training substrate. Covers exactly the operations the paper's models
/// need: GEMM, bias, elementwise activations and reductions.

#ifndef ALIGRAPH_NN_MATRIX_H_
#define ALIGRAPH_NN_MATRIX_H_

#include <cmath>
#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace aligraph {
namespace nn {

/// \brief Row-major dense matrix of float. A 1 x n matrix doubles as a
/// vector.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  /// Xavier/Glorot-uniform initialization.
  static Matrix Xavier(size_t rows, size_t cols, Rng& rng);

  /// Gaussian initialization with the given standard deviation.
  static Matrix Gaussian(size_t rows, size_t cols, float stddev, Rng& rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  std::span<float> Row(size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const float> Row(size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Elementwise in-place helpers.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(float s);

  /// Frobenius norm squared.
  float SquaredNorm() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

/// C = A * B. A is [n,k], B is [k,m], C is [n,m]. Each C[i][j] is the sum
/// of A[i][p] * B[p][j] over p in ascending order, starting from +0, each
/// term a separate multiply and add (no FMA), so the result does not depend
/// on how the kernel tiles or vectorizes, nor on which ISA runs it. Plain
/// IEEE semantics throughout: a zero in A does not mask an Inf or NaN in B.
/// One kernel source is built twice on x86-64, for AVX2 and for the
/// baseline ISA, and the loader picks the build the CPU supports; both
/// produce the same bits. Linear::BackwardAt runs both of its products
/// (X^T dY and dY W^T) through MatMul on Transpose copies, so the backward
/// pass follows this contract.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// C = A * B + bias, with the 1 x m bias row added in the kernel's store:
/// each C[i][j] is MatMul's sum, then + bias[j], so the result is bit-equal
/// to MatMul followed by AddBiasRow without a second pass over C.
Matrix MatMulAddBias(const Matrix& a, const Matrix& b, const Matrix& bias);

/// A^T: the [cols, rows] matrix with A^T[j][i] == A[i][j].
Matrix Transpose(const Matrix& a);

/// Adds a 1 x m bias row to every row of a.
void AddBiasRow(Matrix& a, const Matrix& bias);

/// The logistic function 1 / (1 + e^-x).
inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

/// Elementwise activations with their derivative-given-output forms.
void ReluInPlace(Matrix& a);
Matrix ReluBackward(const Matrix& output, const Matrix& grad);
void TanhInPlace(Matrix& a);
Matrix TanhBackward(const Matrix& output, const Matrix& grad);
void SigmoidInPlace(Matrix& a);

/// Row-wise L2 normalization (the per-hop normalize step of Algorithm 1).
void L2NormalizeRows(Matrix& a);

/// Softmax of a non-empty vector in place: exp(v - max) over its sum.
void Softmax(std::span<float> v);

/// Softmax of every row in place.
void SoftmaxRows(Matrix& a);

/// Horizontal concatenation [a | b].
Matrix ConcatCols(const Matrix& a, const Matrix& b);

float Dot(std::span<const float> a, std::span<const float> b);

namespace simd {

// Four floats in one SIMD register, via the GCC/Clang vector extension: SSE
// or NEON arithmetic out of -O2, lane-wise the same IEEE operations as the
// scalar code.
typedef float F4 __attribute__((vector_size(16)));

inline F4 Load4(const float* p) {
  F4 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store4(float* p, F4 v) { std::memcpy(p, &v, sizeof(v)); }

}  // namespace simd

/// y += alpha * x, lane by lane. Inline, so the many short calls of the
/// mean aggregations compile to straight-line vector code.
inline void Axpy(float alpha, std::span<const float> x, std::span<float> y) {
  ALIGRAPH_CHECK_EQ(x.size(), y.size());
  const simd::F4 a = {alpha, alpha, alpha, alpha};
  size_t i = 0;
  for (; i + 4 <= x.size(); i += 4) {
    simd::Store4(y.data() + i, simd::Load4(y.data() + i) +
                                   a * simd::Load4(x.data() + i));
  }
  for (; i < x.size(); ++i) y[i] += alpha * x[i];
}

}  // namespace nn
}  // namespace aligraph

#endif  // ALIGRAPH_NN_MATRIX_H_
