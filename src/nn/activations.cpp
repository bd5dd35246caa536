#include "nn/activations.hpp"

#include <stdexcept>

#include "nn/layer_rows.hpp"

namespace distgnn {

void Relu::forward(ConstMatrixView X, MatrixView Y) {
  if (X.rows != Y.rows || X.cols != Y.cols) throw std::invalid_argument("Relu: shape mismatch");
  mask_.resize(X.size());
  const std::size_t d = X.cols;
#pragma omp parallel for schedule(static)
  for (std::size_t r = 0; r < X.rows; ++r) {
    rows::relu(X.row(r), d, Y.row(r));
    // y > 0 exactly where x > 0, and reading y stays correct when X aliases Y.
    const real_t* y = Y.row(r);
    std::uint8_t* m = mask_.data() + r * d;
    for (std::size_t j = 0; j < d; ++j) m[j] = y[j] > 0 ? 1 : 0;
  }
}

void Relu::backward(ConstMatrixView dY, MatrixView dX) const {
  if (dY.size() != mask_.size()) throw std::invalid_argument("Relu::backward: size mismatch");
  const std::size_t n = dY.size();
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) dX.data[i] = mask_[i] ? dY.data[i] : 0;
}

void Relu::backward_rows(std::span<const vid_t> rows, ConstMatrixView dY, MatrixView dX) const {
  if (dY.size() != mask_.size() || dX.rows != rows.size() || dX.cols != dY.cols)
    throw std::invalid_argument("Relu::backward_rows: size mismatch");
  // Every row, ascending: the flat loop, faster than one loop per row.
  if (rows.size() == dY.rows) return backward(dY, dX);
  const std::size_t n = rows.size(), d = dY.cols;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(rows[i]);
    const real_t* dy = dY.row(r);
    const std::uint8_t* m = mask_.data() + r * d;
    real_t* dx = dX.row(i);
    for (std::size_t j = 0; j < d; ++j) dx[j] = m[j] ? dy[j] : 0;
  }
}

}  // namespace distgnn
