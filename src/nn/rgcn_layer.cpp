#include "nn/rgcn_layer.hpp"

#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/init.hpp"
#include "nn/layer_rows.hpp"

namespace distgnn {

RgcnLayer::RgcnLayer(std::size_t in_dim, std::size_t out_dim, int num_relations, bool apply_relu,
                     Rng& rng)
    : self_(in_dim, out_dim, rng), apply_relu_(apply_relu) {
  if (num_relations < 1) throw std::invalid_argument("RgcnLayer: need at least one relation");
  relation_.resize(static_cast<std::size_t>(num_relations));
  for (auto& rel : relation_) {
    rel.w.resize_discard(in_dim, out_dim);
    rel.grad.resize_discard(in_dim, out_dim);
    xavier_uniform(rel.w.view(), in_dim, out_dim, rng);
  }
  scaled_aggs_.resize(static_cast<std::size_t>(num_relations));
  inv_norms_.resize(static_cast<std::size_t>(num_relations));
}

void RgcnLayer::forward_from_aggregates(ConstMatrixView H, const std::vector<DenseMatrix>& aggs,
                                        const std::vector<DenseMatrix>& inv_norms, MatrixView Y) {
  if (aggs.size() != relation_.size() || inv_norms.size() != relation_.size())
    throw std::invalid_argument("RgcnLayer: one aggregate and normalizer per relation required");
  const std::size_t n = H.rows, d = H.cols;

  // Self path: Y = H W_self + b.
  self_.forward(H, Y);

  // Relation paths: Y += (agg_r ⊙ inv_norm_r) W_r, relations ascending.
  for (std::size_t r = 0; r < relation_.size(); ++r) {
    if (aggs[r].rows() != n || aggs[r].cols() != d)
      throw std::invalid_argument("RgcnLayer: aggregate shape mismatch");
    scaled_aggs_[r].resize_discard(n, d);
    inv_norms_[r] = inv_norms[r];
  }
#pragma omp parallel for schedule(static)
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t r = 0; r < relation_.size(); ++r) {
      real_t* scaled = scaled_aggs_[r].row(v);
      rows::scale(aggs[r].row(v), inv_norms[r].at(v, 0), d, scaled);
      rows::xw(scaled, relation_[r].w.cview(), Y.row(v), /*accumulate=*/true);
    }

  if (apply_relu_) relu_.forward(ConstMatrixView(Y), Y);
}

void RgcnLayer::backward(ConstMatrixView H, ConstMatrixView dY,
                         std::vector<DenseMatrix>& dscaled_rel, MatrixView dH_self) {
  if (dscaled_rel.size() != relation_.size())
    throw std::invalid_argument("RgcnLayer::backward: one output buffer per relation required");

  ConstMatrixView upstream = dY;
  if (apply_relu_) {
    dz_.resize_discard(dY.rows, dY.cols);
    relu_.backward(dY, dz_.view());
    upstream = dz_.cview();
  }

  // Self path (also accumulates dW_self and db).
  self_.backward(H, upstream, dH_self);

  // Relation paths. With an empty dH_self (the input layer) only the
  // weight gradients are needed.
  for (std::size_t r = 0; r < relation_.size(); ++r) {
    gemm_at_b(scaled_aggs_[r].cview(), upstream, relation_[r].grad.view(), /*accumulate=*/true);
    if (dH_self.empty()) continue;
    DenseMatrix& dscaled = dscaled_rel[r];
    dscaled.resize_discard(scaled_aggs_[r].rows(), scaled_aggs_[r].cols());
    gemm_a_bt(upstream, relation_[r].w.cview(), dscaled.view());
    const std::size_t n = dscaled.rows(), d = dscaled.cols();
#pragma omp parallel for schedule(static)
    for (std::size_t v = 0; v < n; ++v) {
      const real_t s = inv_norms_[r].at(v, 0);
      real_t* row = dscaled.row(v);
#pragma omp simd
      for (std::size_t j = 0; j < d; ++j) row[j] *= s;
    }
  }
}

void RgcnLayer::zero_grad() {
  self_.zero_grad();
  for (auto& rel : relation_) rel.grad.zero();
}

void RgcnLayer::collect_params(std::vector<ParamRef>& out) {
  out.push_back({self_.weight().data(), self_.weight_grad().data(), self_.weight().size()});
  out.push_back({self_.bias().data(), self_.bias_grad().data(), self_.bias().size()});
  for (auto& rel : relation_)
    out.push_back({rel.w.data(), rel.grad.data(), rel.w.size()});
}

}  // namespace distgnn
