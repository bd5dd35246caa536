#include "nn/activations.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "nn/layer_rows.hpp"

namespace distgnn {

namespace {

/// m ? dy : +0.0, without a branch: a mask byte is 0 or 1, so 0u - m is all
/// zeros or all ones, and the AND keeps dy's bits or none.
inline real_t masked(real_t dy, std::uint8_t m) {
  return std::bit_cast<real_t>(std::bit_cast<std::uint32_t>(dy) &
                               (0u - static_cast<std::uint32_t>(m)));
}

}  // namespace

void Relu::forward(ConstMatrixView X, MatrixView Y) {
  if (X.rows != Y.rows || X.cols != Y.cols) throw std::invalid_argument("Relu: shape mismatch");
  mask_.resize(X.size());
  mask_rows_ = X.rows;
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
  if (dY.size() != mask_.size() || dX.size() != mask_.size())
    throw std::invalid_argument("Relu::backward: size mismatch");
  const std::size_t n = dY.size();
  const std::uint8_t* m = mask_.data();
#pragma omp parallel for simd schedule(static)
  for (std::size_t i = 0; i < n; ++i) dX.data[i] = masked(dY.data[i], m[i]);
}

void Relu::backward_rows(std::span<const vid_t> rows, ConstMatrixView dY, MatrixView dX) const {
  const std::size_t n = rows.size(), d = dY.cols;
  const bool by_position = mask_rows_ == n;
  if ((!by_position && mask_rows_ != dY.rows) || mask_.size() != mask_rows_ * d ||
      dX.rows != n || dX.cols != d)
    throw std::invalid_argument("Relu::backward_rows: size mismatch");
  // Every row, ascending: the flat loop, faster than one loop per row.
  if (n == dY.rows) return backward(dY, dX);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(rows[i]);
    const real_t* dy = dY.row(r);
    const std::uint8_t* m = mask_.data() + (by_position ? i : r) * d;
    real_t* dx = dX.row(i);
#pragma omp simd
    for (std::size_t j = 0; j < d; ++j) dx[j] = masked(dy[j], m[j]);
  }
}

}  // namespace distgnn
