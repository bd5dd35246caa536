// Fully connected layer with manual backward. Parameters and their gradients
// are exposed as flat spans so the distributed trainer can AllReduce them.
// The forward keeps no state: it is gemm_bias, whose rows are bitwise
// rows::affine of nn/layer_rows.hpp, and backward takes the forward's input
// from the caller.
#pragma once

#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace distgnn {

class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  /// Y = X W + b; each row is bitwise rows::affine.
  void forward(ConstMatrixView X, MatrixView Y) const;

  /// Given the forward input X and dY, accumulates dW/db and writes dX (may
  /// be empty to skip the input gradient at the first layer).
  void backward(ConstMatrixView X, ConstMatrixView dY, MatrixView dX);

  void zero_grad();

  std::size_t in_dim() const { return weight_.rows(); }
  std::size_t out_dim() const { return weight_.cols(); }

  DenseMatrix& weight() { return weight_; }
  DenseMatrix& bias() { return bias_; }
  DenseMatrix& weight_grad() { return weight_grad_; }
  DenseMatrix& bias_grad() { return bias_grad_; }
  const DenseMatrix& weight() const { return weight_; }
  const DenseMatrix& bias() const { return bias_; }

 private:
  DenseMatrix weight_;       // in x out
  DenseMatrix bias_;         // 1 x out
  DenseMatrix weight_grad_;  // in x out
  DenseMatrix bias_grad_;    // 1 x out
};

}  // namespace distgnn
