// The ReLU activation with manual backward.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/matrix.hpp"

namespace distgnn {

class Relu {
 public:
  /// Y = max(X, 0); X and Y may alias. Caches the mask.
  void forward(ConstMatrixView X, MatrixView Y);
  /// dX = dY * 1[X > 0]; dY and dX may alias.
  void backward(ConstMatrixView dY, MatrixView dX) const;
  /// dX[i] = dY[rows[i]] * 1[X[rows[i]] > 0]: the backward of the forward's
  /// rows `rows` (ascending, distinct) only, compacted; dX has rows.size()
  /// rows.
  void backward_rows(std::span<const vid_t> rows, ConstMatrixView dY, MatrixView dX) const;

 private:
  std::vector<std::uint8_t> mask_;
};

}  // namespace distgnn
