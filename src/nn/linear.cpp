#include "nn/linear.hpp"

#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/init.hpp"

namespace distgnn {

Linear::Linear(std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : weight_(in_dim, out_dim),
      bias_(1, out_dim),
      weight_grad_(in_dim, out_dim),
      bias_grad_(1, out_dim) {
  xavier_uniform(weight_.view(), in_dim, out_dim, rng);
  zero_init(bias_.view());
}

void Linear::forward(ConstMatrixView X, MatrixView Y) const {
  if (X.cols != in_dim()) throw std::invalid_argument("Linear::forward: input width mismatch");
  if (Y.rows != X.rows || Y.cols != out_dim())
    throw std::invalid_argument("Linear::forward: output shape mismatch");
  gemm_bias(X, weight_.cview(), bias_.data(), Y);
}

void Linear::backward(ConstMatrixView X, ConstMatrixView dY, MatrixView dX) {
  if (dY.rows != X.rows || X.cols != in_dim())
    throw std::invalid_argument("Linear::backward: X/dY shape mismatch");
  // dW += X^T dY ; db += colsum(dY) ; dX = dY W^T
  gemm_at_b(X, dY, weight_grad_.view(), /*accumulate=*/true);
  column_sums(dY, bias_grad_.view(), /*accumulate=*/true);
  if (!dX.empty()) gemm_a_bt(dY, weight_.cview(), dX);
}

void Linear::zero_grad() {
  weight_grad_.zero();
  bias_grad_.zero();
}

}  // namespace distgnn
