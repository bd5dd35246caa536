// Relational GCN layer (Schlichtkrull et al.), the model Figure 2 runs on
// the AM dataset ("RGCN-hetero"):
//
//   h'_v = act(  W_self h_v  +  Σ_r (1/c_{v,r}) Σ_{u ∈ N_r(v)} W_r h_u  + b )
//
// where N_r(v) is v's in-neighbourhood under relation r and c_{v,r} its
// size. Like GraphSageLayer, the aggregation itself is external: the caller
// feeds one aggregate matrix per relation (computed with the optimized AP on
// the relation's CSR), and the layer owns the per-relation linear
// transforms and the backward bookkeeping.
#pragma once

#include <vector>

#include "nn/activations.hpp"
#include "nn/linear.hpp"
#include "nn/optim.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace distgnn {

class RgcnLayer {
 public:
  RgcnLayer(std::size_t in_dim, std::size_t out_dim, int num_relations, bool apply_relu, Rng& rng);

  /// H: (n x in) inputs; aggs[r]: (n x in) neighbourhood sums per relation;
  /// inv_norms[r]: (n x 1) per-vertex 1/max(1, c_{v,r}); Y: (n x out).
  void forward_from_aggregates(ConstMatrixView H, const std::vector<DenseMatrix>& aggs,
                               const std::vector<DenseMatrix>& inv_norms, MatrixView Y);

  /// Backward from dY, given the forward's input H. dscaled_rel[r] receives
  /// inv_norm_r ⊙ (dY W_rᵀ) — the gradient w.r.t. relation r's aggregate —
  /// and dH_self receives the gradient through the self path (dY W_selfᵀ).
  /// The caller completes
  ///   dH = dH_self + Σ_r A_rᵀ dscaled_rel[r].
  /// Parameter gradients accumulate internally. An empty dH_self (the input
  /// layer) computes only those and leaves dscaled_rel untouched.
  void backward(ConstMatrixView H, ConstMatrixView dY, std::vector<DenseMatrix>& dscaled_rel,
                MatrixView dH_self);

  void zero_grad();
  void collect_params(std::vector<ParamRef>& out);

  std::size_t in_dim() const { return self_.in_dim(); }
  std::size_t out_dim() const { return self_.out_dim(); }
  int num_relations() const { return static_cast<int>(relation_.size()); }

 private:
  struct RelationWeight {
    DenseMatrix w;     // in x out
    DenseMatrix grad;  // in x out
  };

  Linear self_;                           // W_self (owns the bias)
  std::vector<RelationWeight> relation_;  // W_r
  Relu relu_;
  bool apply_relu_;
  std::vector<DenseMatrix> scaled_aggs_;  // inv_norm_r ⊙ agg_r, cached per forward
  std::vector<DenseMatrix> inv_norms_;    // cached normalizers
  DenseMatrix dz_;                        // backward scratch
};

}  // namespace distgnn
