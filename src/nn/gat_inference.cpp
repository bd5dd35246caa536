#include "nn/gat_inference.hpp"

#include <stdexcept>

#include "nn/gemm.hpp"
#include "nn/init.hpp"
#include "nn/layer_rows.hpp"

namespace distgnn {

GatInference::GatInference(std::size_t in_dim, std::size_t out_dim, Rng& rng, float leaky_slope)
    : weight_(in_dim, out_dim),
      attn_src_(1, out_dim),
      attn_dst_(1, out_dim),
      leaky_slope_(leaky_slope) {
  xavier_uniform(weight_.view(), in_dim, out_dim, rng);
  xavier_uniform(attn_src_.view(), out_dim, 1, rng);
  xavier_uniform(attn_dst_.view(), out_dim, 1, rng);
}

void GatInference::forward(const Graph& g, ConstMatrixView H, MatrixView Y) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (H.rows != n || Y.rows != n || Y.cols != weight_.cols())
    throw std::invalid_argument("GatInference: shape mismatch");
  const std::size_t d = weight_.cols();

  // Projection.
  z_.resize_discard(n, d);
  gemm(H, weight_.cview(), z_.view());

  // Per-vertex halves of the additive attention: src_term_u = a_src . z_u,
  // dst_term_v = a_dst . z_v. (The SDDMM pattern reduced to rank-1 form.)
  std::vector<real_t> src_term(n), dst_term(n);
#pragma omp parallel for schedule(static)
  for (std::size_t v = 0; v < n; ++v) {
    src_term[v] = rows::dot(z_.row(v), attn_src_.data(), d);
    dst_term[v] = rows::dot(z_.row(v), attn_dst_.data(), d);
  }

  // Per-destination softmax over the in-adjacency and the attention-weighted
  // aggregation; α lands in in-CSR order, then scatters to coo order.
  const CsrMatrix& in_csr = g.in_csr();
  std::vector<real_t> alpha(static_cast<std::size_t>(in_csr.num_entries()));
  attention_.assign(g.coo().edges.size(), 0);
  const vid_t nv = g.num_vertices();
#pragma omp parallel for schedule(dynamic, 64)
  for (vid_t v = 0; v < nv; ++v) {
    const auto nbrs = in_csr.neighbors(v);
    const auto eids = in_csr.edge_ids(v);
    real_t* a = alpha.data() + in_csr.row_ptr()[static_cast<std::size_t>(v)];
    rows::gat_attend(nbrs, src_term.data(), dst_term[static_cast<std::size_t>(v)], leaky_slope_,
                     z_.cview(), a, Y.row(static_cast<std::size_t>(v)));
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      attention_[static_cast<std::size_t>(eids[i])] = a[i];
  }
}

}  // namespace distgnn
