/// \file layers.h
/// \brief Trainable layers with explicit forward/backward passes — the
/// building blocks models in the algorithm layer compose by hand (the
/// paper's operators are likewise "made up of forward and backward
/// computations").

#ifndef ALIGRAPH_NN_LAYERS_H_
#define ALIGRAPH_NN_LAYERS_H_

#include <vector>

#include "nn/matrix.h"
#include "nn/optimizer.h"

namespace aligraph {
namespace nn {

/// \brief Fully connected layer Y = X W + b.
class Linear {
 public:
  Linear(size_t in_dim, size_t out_dim, Rng& rng)
      : w_(Matrix::Xavier(in_dim, out_dim, rng)),
        b_(Matrix(1, out_dim)) {}

  /// Y = X W + b, the bias added in the GEMM's store (MatMulAddBias). The
  /// layer keeps no state between calls: the caller keeps X and passes it
  /// back to BackwardAt.
  Matrix ForwardAt(const Matrix& x) const;
  /// Backward of a ForwardAt(x): dW += X^T dY, db += colsum(dY), returns
  /// dX = dY W^T, both products under MatMul's contract.
  Matrix BackwardAt(const Matrix& x, const Matrix& grad_out);

  /// Applies the optimizer to both parameters and clears gradients.
  void Apply(Optimizer& opt) {
    opt.Step(w_);
    opt.Step(b_);
  }

  size_t in_dim() const { return w_.value.rows(); }
  size_t out_dim() const { return w_.value.cols(); }
  Param& weight() { return w_; }
  Param& bias() { return b_; }

 private:
  Param w_;
  Param b_;
};

/// \brief Embedding table with sparse SGD updates, the dominant parameter
/// store of every random-walk model.
class EmbeddingTable {
 public:
  EmbeddingTable(size_t num_rows, size_t dim, Rng& rng, float scale = 0.01f);

  size_t num_rows() const { return table_.rows(); }
  size_t dim() const { return table_.cols(); }

  std::span<float> Row(size_t id) { return table_.Row(id); }
  std::span<const float> Row(size_t id) const { return table_.Row(id); }

  /// Gathers rows into a [ids.size(), dim] matrix.
  Matrix Lookup(std::span<const uint32_t> ids) const;

  /// row[id] -= lr * grad (sparse SGD step on one row).
  void SgdUpdate(size_t id, std::span<const float> grad, float lr);

  const Matrix& matrix() const { return table_; }
  Matrix& mutable_matrix() { return table_; }

 private:
  Matrix table_;
};

/// \brief Binary cross-entropy with logits on a score vector.
/// Returns the mean loss; fills grad with dLoss/dlogit (same length).
float BceWithLogits(std::span<const float> logits,
                    std::span<const float> labels, std::span<float> grad);

/// \brief Softmax cross-entropy over rows of `logits` against integer
/// labels. Returns mean loss; grad gets dLoss/dlogits.
float SoftmaxXent(const Matrix& logits, std::span<const uint32_t> labels,
                  Matrix* grad);

}  // namespace nn
}  // namespace aligraph

#endif  // ALIGRAPH_NN_LAYERS_H_
