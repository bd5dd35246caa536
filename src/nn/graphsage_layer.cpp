#include "nn/graphsage_layer.hpp"

#include <cstring>
#include <stdexcept>

#include "nn/layer_rows.hpp"

namespace distgnn {

GraphSageLayer::GraphSageLayer(std::size_t in_dim, std::size_t out_dim, bool apply_relu, Rng& rng)
    : linear_(in_dim, out_dim, rng), apply_relu_(apply_relu) {}

void GraphSageLayer::combine(ConstMatrixView H, ConstMatrixView agg, ConstMatrixView inv_norm,
                             MatrixView combined) {
  if (H.rows != agg.rows || H.cols != agg.cols)
    throw std::invalid_argument("GraphSageLayer: H/agg shape mismatch");
  if (inv_norm.rows != H.rows || inv_norm.cols != 1)
    throw std::invalid_argument("GraphSageLayer: inv_norm must be n x 1");
  if (combined.rows != H.rows || combined.cols != H.cols)
    throw std::invalid_argument("GraphSageLayer: combined shape mismatch");

  const std::size_t n = H.rows, d = H.cols;
#pragma omp parallel for schedule(static)
  for (std::size_t v = 0; v < n; ++v)
    rows::sage_combine(agg.row(v), H.row(v), inv_norm.at(v, 0), d, combined.row(v));
}

void GraphSageLayer::forward(ConstMatrixView combined, MatrixView Y) {
  if (combined.cols != in_dim())
    throw std::invalid_argument("GraphSageLayer: combined width must be in_dim");
  forward_rows_ = combined.rows;
  if (apply_relu_) {
    z_.resize_discard(combined.rows, linear_.out_dim());
    linear_.forward(combined, z_.view());
    relu_.forward(z_.cview(), Y);
  } else {
    linear_.forward(combined, Y);
  }
}

void GraphSageLayer::backward(std::span<const vid_t> rows, ConstMatrixView x,
                              ConstMatrixView inv_norm, ConstMatrixView dY, MatrixView dscaled) {
  if (x.rows != rows.size() || x.cols != in_dim() || inv_norm.rows != dY.rows ||
      inv_norm.cols != 1 || (forward_rows_ != rows.size() && forward_rows_ != dY.rows) ||
      (!dscaled.empty() && (dscaled.rows != dY.rows || dscaled.cols != x.cols)))
    throw std::invalid_argument("GraphSageLayer::backward: shape mismatch");
  const std::size_t n = rows.size(), d = x.cols, m = dY.cols;
  // Over every row, a layer without ReLU reads dY in place, and d(combined)
  // lands in dscaled and is scaled in place.
  const bool every_row = n == dY.rows;
  ConstMatrixView dz = dY;
  if (apply_relu_ || !every_row) {
    dz_.resize_discard(n, m);
    if (apply_relu_) {
      relu_.backward_rows(rows, dY, dz_.view());
    } else {
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < n; ++i)
        std::memcpy(dz_.row(i), dY.row(static_cast<std::size_t>(rows[i])), m * sizeof(real_t));
    }
    dz = dz_.cview();
  }

  if (dscaled.empty()) return linear_.backward(x, dz, {});
  MatrixView dx = dscaled;
  if (!every_row) {
    dx_.resize_discard(n, d);
    dx = dx_.view();
  }
  linear_.backward(x, dz, dx);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const auto r = static_cast<std::size_t>(rows[i]);
    const real_t s = inv_norm.at(r, 0);
    const real_t* src = dx.row(i);
    real_t* dst = dscaled.row(r);
#pragma omp simd
    for (std::size_t j = 0; j < d; ++j) dst[j] = src[j] * s;
  }
}

void GraphSageLayer::collect_params(std::vector<ParamRef>& out) {
  out.push_back({linear_.weight().data(), linear_.weight_grad().data(), linear_.weight().size()});
  out.push_back({linear_.bias().data(), linear_.bias_grad().data(), linear_.bias().size()});
}

}  // namespace distgnn
