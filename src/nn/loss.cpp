#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace distgnn {

double SoftmaxCrossEntropy::forward(ConstMatrixView logits, std::span<const int> labels,
                                    std::span<const std::uint8_t> mask,
                                    std::int64_t normalization) {
  if (labels.size() != logits.rows || mask.size() != logits.rows)
    throw std::invalid_argument("SoftmaxCrossEntropy: labels/mask size mismatch");
  probs_.resize_discard(logits.rows, logits.cols);
  labels_ = labels;
  mask_ = mask;

  if (normalization <= 0) {
    normalization = 0;
    for (const auto m : mask)
      if (m) ++normalization;
  }
  divisor_ = static_cast<double>(std::max<std::int64_t>(1, normalization));

  double loss_sum = 0.0;
  const std::size_t n = logits.rows, c = logits.cols;
#pragma omp parallel for schedule(static) reduction(+ : loss_sum)
  for (std::size_t v = 0; v < n; ++v) {
    const real_t* row = logits.row(v);
    real_t* p = probs_.row(v);
    real_t maxv = row[0];
    for (std::size_t j = 1; j < c; ++j) maxv = std::max(maxv, row[j]);
    real_t denom = 0;
    for (std::size_t j = 0; j < c; ++j) {
      p[j] = std::exp(row[j] - maxv);
      denom += p[j];
    }
    const real_t inv = 1.0f / denom;
    for (std::size_t j = 0; j < c; ++j) p[j] *= inv;
    if (mask_[v]) {
      const int label = labels_[v];
      if (label < 0 || static_cast<std::size_t>(label) >= c)
        continue;  // defensive: unlabeled vertices contribute nothing
      loss_sum += -std::log(std::max(1e-12, static_cast<double>(p[static_cast<std::size_t>(label)])));
    }
  }
  return loss_sum / divisor_;
}

void SoftmaxCrossEntropy::backward(MatrixView dLogits) const {
  if (dLogits.rows != probs_.rows() || dLogits.cols != probs_.cols())
    throw std::invalid_argument("SoftmaxCrossEntropy::backward: shape mismatch");
  const std::size_t n = dLogits.rows, c = dLogits.cols;
  const real_t scale = static_cast<real_t>(1.0 / divisor_);
#pragma omp parallel for schedule(static)
  for (std::size_t v = 0; v < n; ++v) {
    real_t* d = dLogits.row(v);
    if (!mask_[v]) {
      for (std::size_t j = 0; j < c; ++j) d[j] = 0;
      continue;
    }
    const real_t* p = probs_.row(v);
    for (std::size_t j = 0; j < c; ++j) d[j] = p[j] * scale;
    const int label = labels_[v];
    if (label >= 0 && static_cast<std::size_t>(label) < c)
      d[static_cast<std::size_t>(label)] -= scale;
  }
}

}  // namespace distgnn
