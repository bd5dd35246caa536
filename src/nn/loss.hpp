// Masked softmax cross-entropy for vertex classification. Loss is averaged
// over the masked vertices; in distributed runs the trainer passes the
// *global* masked count so that summing gradients over ranks with AllReduce
// reproduces the exact single-socket gradient.
#pragma once

#include <cstdint>
#include <span>

#include "util/matrix.hpp"

namespace distgnn {

class SoftmaxCrossEntropy {
 public:
  /// Computes mean NLL over rows where mask != 0. `normalization` overrides
  /// the divisor (a trainer passes the masked count it computed once, or the
  /// global count across ranks); 0 counts the mask on this call. Caches
  /// probabilities for backward. Returns the *sum* divided by the divisor,
  /// i.e. sum_local / normalization.
  ///
  /// The loss keeps views of `labels` and `mask`, not copies: both must
  /// outlive the backward() that follows.
  double forward(ConstMatrixView logits, std::span<const int> labels,
                 std::span<const std::uint8_t> mask, std::int64_t normalization = 0);

  /// dLogits[v] = (softmax(v) - onehot(label_v)) / divisor for masked rows,
  /// zero elsewhere.
  void backward(MatrixView dLogits) const;

 private:
  DenseMatrix probs_;
  std::span<const int> labels_;
  std::span<const std::uint8_t> mask_;
  double divisor_ = 1.0;
};

}  // namespace distgnn
