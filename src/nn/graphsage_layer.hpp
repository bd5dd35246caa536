// One GraphSAGE layer with the paper's GCN aggregation operator (§6.1):
// the neighbourhood sum is added to the vertex's own features and the sum is
// normalized by the in-degree, then passed through a Linear (+ ReLU).
//
// The layer is deliberately decoupled from *how* the neighbourhood sum was
// produced: the single-socket trainer feeds it a local aggregate, the
// distributed trainers feed it local + (possibly stale) remote partial
// aggregates. `combine` turns an aggregate into the layer's Linear input,
// which the caller owns: a trainer whose input features never change builds
// it once. `forward` runs the Linear (+ ReLU) on it, and `backward` returns,
// for the rows the caller lists, the degree-scaled upstream gradient so the
// caller can push it back through the (local) adjacency. Every trainer lists
// the rows it owns: all of them on one socket or in a sampled block, the
// owned clones on a vertex cut.
#pragma once

#include <span>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/optim.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace distgnn {

class GraphSageLayer {
 public:
  /// `apply_relu` is false on the output layer.
  GraphSageLayer(std::size_t in_dim, std::size_t out_dim, bool apply_relu, Rng& rng);

  /// combined = (agg + H) ⊙ inv_norm, row by row (rows::sage_combine).
  /// H: input features (n x in); agg: complete (or partial, for 0c/cd-r)
  /// neighbourhood sum (n x in); inv_norm: per-vertex 1/(deg+1) column
  /// (n x 1). `combined` (n x in) may alias `agg`.
  static void combine(ConstMatrixView H, ConstMatrixView agg, ConstMatrixView inv_norm,
                      MatrixView combined);

  /// Y = act(combined W + b), Y: (n x out). Backward needs the same
  /// `combined` again, so the caller keeps it until then.
  void forward(ConstMatrixView combined, MatrixView Y);
  /// Rows of the last forward's `combined`.
  std::size_t forward_rows() const { return forward_rows_; }

  /// Backward of the rows `rows` (ascending, distinct) of dY, as if the
  /// forward had run on just them: to the *scaled* combined gradient
  /// dscaled = inv_norm ⊙ d(combined). The forward ran either on dY's rows,
  /// or on just the listed rows, in order (its pre-activation is then read
  /// by position). `x` holds the listed rows of the forward's combined
  /// input, in order. Reads rows rows[i] of `inv_norm` and `dY`, writes rows
  /// rows[i] of `dscaled` (as tall as dY, or empty), and no other row. The
  /// caller finishes
  ///   dH = dscaled + A_localᵀ · dscaled
  /// (self path + neighbour path). Parameter gradients accumulate
  /// internally; an empty `dscaled` (the input layer) computes only those.
  void backward(std::span<const vid_t> rows, ConstMatrixView x, ConstMatrixView inv_norm,
                ConstMatrixView dY, MatrixView dscaled);

  void zero_grad() { linear_.zero_grad(); }
  void collect_params(std::vector<ParamRef>& out);

  std::size_t in_dim() const { return linear_.in_dim(); }
  std::size_t out_dim() const { return linear_.out_dim(); }
  Linear& linear() { return linear_; }
  const Linear& linear() const { return linear_; }

 private:
  Linear linear_;
  Relu relu_;
  bool apply_relu_;
  std::size_t forward_rows_ = 0;
  DenseMatrix z_;   // pre-activation, one row per forward row
  DenseMatrix dz_;  // scratch for backward: the rows' d(pre-activation)
  DenseMatrix dx_;  // scratch for backward over some rows: their d(combined)
};

}  // namespace distgnn
