// Naive scalar single-head GAT forward (Velickovic et al.): the reference the
// GAT tests hold rows::gat_attend and the served GAT layer to.
//
// It is written from the layer's definition, not from nn/layer_rows.hpp, but
// it keeps the float operation order the bitwise contract fixes, so the
// comparison can be exact:
//
//   z_v   = h_v · W                        k ascending, from 0
//   s_u   = a_src · z_u,  t_v = a_dst · z_v    j ascending, from 0
//   e_uv  = LeakyReLU(s_u + t_v)
//   α_uv  = exp(e_uv - max_u e_uv) · (1 / Σ_u exp(e_uv - max_u e_uv))
//                                          Σ over v's in-edges in CSR order
//   out_v = Σ_u α_uv z_u                   in-edges in CSR order, from 0
//
// A destination without in-edges outputs zeros. No self edge is added.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "graph/csr.hpp"
#include "nn/init.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace distgnn {

/// One GAT layer's parameters, in the order a GAT ModelSnapshot flattens
/// them: weight, then a_src, then a_dst.
struct GatWeights {
  DenseMatrix weight;    // in x out
  DenseMatrix attn_src;  // 1 x out
  DenseMatrix attn_dst;  // 1 x out
  real_t slope = 0.2f;   // LeakyReLU negative slope

  static GatWeights random(std::size_t in_dim, std::size_t out_dim, Rng& rng,
                           real_t slope = 0.2f) {
    GatWeights g{DenseMatrix(in_dim, out_dim), DenseMatrix(1, out_dim), DenseMatrix(1, out_dim),
                 slope};
    xavier_uniform(g.weight.view(), in_dim, out_dim, rng);
    xavier_uniform(g.attn_src.view(), out_dim, 1, rng);
    xavier_uniform(g.attn_dst.view(), out_dim, 1, rng);
    return g;
  }

  std::vector<real_t> flatten() const {
    std::vector<real_t> flat;
    for (const DenseMatrix* m : {&weight, &attn_src, &attn_dst})
      flat.insert(flat.end(), m->data(), m->data() + m->size());
    return flat;
  }
};

/// Y (|V| x out) = the GAT layer over `in_csr` (rows are destinations).
/// Returns α, one value per in-CSR entry in entry order.
inline std::vector<real_t> gat_reference(const CsrMatrix& in_csr, ConstMatrixView H,
                                         const GatWeights& g, MatrixView Y) {
  const std::size_t n = H.rows, in = g.weight.rows(), d = g.weight.cols();
  std::vector<real_t> z(n * d), s(n), t(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t j = 0; j < d; ++j) {
      real_t acc = 0;
      for (std::size_t k = 0; k < in; ++k) acc += H.at(v, k) * g.weight.at(k, j);
      z[v * d + j] = acc;
    }
    real_t sv = 0, tv = 0;
    for (std::size_t j = 0; j < d; ++j) sv += z[v * d + j] * g.attn_src.at(0, j);
    for (std::size_t j = 0; j < d; ++j) tv += z[v * d + j] * g.attn_dst.at(0, j);
    s[v] = sv;
    t[v] = tv;
  }

  std::vector<real_t> alpha(static_cast<std::size_t>(in_csr.num_entries()));
  for (std::size_t v = 0; v < n; ++v) {
    const auto nbrs = in_csr.neighbors(static_cast<vid_t>(v));
    const auto first = static_cast<std::size_t>(in_csr.row_ptr()[v]);
    for (std::size_t j = 0; j < d; ++j) Y.at(v, j) = 0;
    if (nbrs.empty()) continue;

    std::vector<real_t> e(nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const real_t raw = s[static_cast<std::size_t>(nbrs[i])] + t[v];
      e[i] = raw > 0 ? raw : g.slope * raw;
    }
    const real_t max_e = *std::max_element(e.begin(), e.end());
    real_t denom = 0;
    for (real_t& x : e) {
      x = std::exp(x - max_e);
      denom += x;
    }
    const real_t inv = 1.0f / denom;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const real_t a = e[i] * inv;
      alpha[first + i] = a;
      const real_t* zu = z.data() + static_cast<std::size_t>(nbrs[i]) * d;
      for (std::size_t j = 0; j < d; ++j) Y.at(v, j) += a * zu[j];
    }
  }
  return alpha;
}

}  // namespace distgnn
