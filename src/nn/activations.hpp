// The ReLU activation with manual backward.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/matrix.hpp"

namespace distgnn {

class Relu {
 public:
  /// Y = max(X, 0); X and Y may alias. Caches the mask, one row per row of X.
  void forward(ConstMatrixView X, MatrixView Y);
  /// dX = dY * 1[X > 0]; dY and dX may alias. The mask is applied
  /// branch-free, the bits of dY ANDed with all ones or all zeros: the
  /// select's bits, +0.0 where the mask is 0.
  void backward(ConstMatrixView dY, MatrixView dX) const;
  /// The backward of the rows `rows` (ascending, distinct) of dY only,
  /// compacted; dX has rows.size() rows. dX[i] = dY[rows[i]] masked by the
  /// forward's row rows[i] where the forward ran on dY's rows, or by its
  /// row i where it ran on just the listed rows.
  void backward_rows(std::span<const vid_t> rows, ConstMatrixView dY, MatrixView dX) const;

 private:
  std::vector<std::uint8_t> mask_;
  std::size_t mask_rows_ = 0;
};

}  // namespace distgnn
