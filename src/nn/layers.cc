#include "nn/layers.h"

#include <cmath>

#include "common/logging.h"

namespace aligraph {
namespace nn {

Matrix Linear::ForwardAt(const Matrix& x) const {
  return MatMulAddBias(x, w_.value, b_.value);
}

Matrix Linear::BackwardAt(const Matrix& x, const Matrix& grad_out) {
  ALIGRAPH_CHECK_EQ(grad_out.rows(), x.rows());
  // dW += X^T dY ; db += colsum(dY) ; dX = dY W^T
  w_.grad += MatMul(Transpose(x), grad_out);
  for (size_t i = 0; i < grad_out.rows(); ++i) {
    auto g = grad_out.Row(i);
    auto b = b_.grad.Row(0);
    for (size_t j = 0; j < g.size(); ++j) b[j] += g[j];
  }
  return MatMul(grad_out, Transpose(w_.value));
}

EmbeddingTable::EmbeddingTable(size_t num_rows, size_t dim, Rng& rng,
                               float scale)
    : table_(Matrix::Gaussian(num_rows, dim, scale, rng)) {}

Matrix EmbeddingTable::Lookup(std::span<const uint32_t> ids) const {
  Matrix out(ids.size(), dim());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto src = Row(ids[i]);
    auto dst = out.Row(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  return out;
}

void EmbeddingTable::SgdUpdate(size_t id, std::span<const float> grad,
                               float lr) {
  Axpy(-lr, grad, Row(id));
}

float BceWithLogits(std::span<const float> logits,
                    std::span<const float> labels, std::span<float> grad) {
  ALIGRAPH_CHECK_EQ(logits.size(), labels.size());
  ALIGRAPH_CHECK_EQ(logits.size(), grad.size());
  float loss = 0;
  const float n = static_cast<float>(logits.size());
  for (size_t i = 0; i < logits.size(); ++i) {
    const float x = logits[i];
    const float y = labels[i];
    // Numerically stable: log(1+exp(-|x|)) + max(x,0) - x*y
    loss += std::log1p(std::exp(-std::abs(x))) + std::max(x, 0.0f) - x * y;
    const float p = Sigmoid(x);
    grad[i] = (p - y) / n;
  }
  return loss / n;
}

float SoftmaxXent(const Matrix& logits, std::span<const uint32_t> labels,
                  Matrix* grad) {
  ALIGRAPH_CHECK_EQ(logits.rows(), labels.size());
  Matrix probs = logits;
  SoftmaxRows(probs);
  float loss = 0;
  const float n = static_cast<float>(logits.rows());
  if (grad != nullptr) *grad = probs;
  for (size_t i = 0; i < logits.rows(); ++i) {
    const float p = std::max(probs.At(i, labels[i]), 1e-12f);
    loss -= std::log(p);
    if (grad != nullptr) {
      grad->At(i, labels[i]) -= 1.0f;
      for (float& g : grad->Row(i)) g /= n;
    }
  }
  return loss / n;
}

}  // namespace nn
}  // namespace aligraph
