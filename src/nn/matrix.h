/// \file matrix.h
/// \brief Dense row-major float32 matrix — the tensor type of AliGraph's
/// training substrate. Covers exactly the operations the paper's models
/// need: GEMM, bias, elementwise activations and reductions.

#ifndef ALIGRAPH_NN_MATRIX_H_
#define ALIGRAPH_NN_MATRIX_H_

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

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
/// of A[i][p] * B[p][j] over p in ascending order, starting from +0, so the
/// result does not depend on how the kernel tiles or vectorizes. Plain IEEE
/// semantics throughout: a zero in A does not mask an Inf or NaN in B.
/// Linear::BackwardAt runs both of its products (X^T dY and dY W^T) through
/// MatMul on Transpose copies, so the backward pass follows this contract.
Matrix MatMul(const Matrix& a, const Matrix& b);

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
void Axpy(float alpha, std::span<const float> x, std::span<float> y);

}  // namespace nn
}  // namespace aligraph

#endif  // ALIGRAPH_NN_MATRIX_H_
