// Per-row float programs of the GNN layers: the one copy of each layer's
// arithmetic that training and serving share.
//
// The full-graph drivers (gemm / gemm_bias, Linear, GraphSageLayer,
// RgcnLayer, Relu) wrap these functions in `#pragma omp parallel for` row
// loops. ModelSnapshot and SampledSageTrainer::forward_batch call them
// serially over their stacked rows. Both sides run the same functions, so a
// served row is bitwise the training-side row whenever the inputs and the
// neighbour order agree. GAT is served only; its rows are checked against a
// scalar reference in the tests.
//
// `xw_rows` is the register-tiled form of `xw` over a block of rows:
// serving's GAT projection runs it inline on the baseline ISA, and gemm
// (Linear) runs its tile templates in the host's variant (kernels/isa.hpp),
// with a 4 x 16 tile under AVX2. It computes output tiles in registers
// instead of storing the output row after every k, but each output still
// starts from 0 (or its Y value) and adds its k terms in ascending order,
// so every row is bitwise `xw` at any tile shape and vector width.
//
// Nothing here starts an OpenMP team: serving workers call these
// concurrently, and a team per worker would oversubscribe the host. Only
// element-wise loops carry `omp simd`. Every reduction (the k sum of x·W,
// the attention dot products) runs serially in ascending index order,
// because reassociating a float sum changes its bits.
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "kernels/microkernel.hpp"
#include "util/matrix.hpp"

namespace distgnn::rows {

/// y = x · W, or y += x · W when `accumulate` (the R-GCN relation terms).
/// The k sum runs in ascending order; x holds W.rows values, y W.cols.
inline void xw(const real_t* x, ConstMatrixView W, real_t* y, bool accumulate = false) {
  const std::size_t n = W.cols;
  if (!accumulate) std::fill(y, y + n, real_t{0});
  for (std::size_t k = 0; k < W.rows; ++k) {
    const real_t a = x[k];
    const real_t* w = W.row(k);
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j) y[j] += a * w[j];
  }
}

/// The register tile of xw_rows: kMr rows by kNr columns of Y. Its
/// kMr * kNr accumulators take 8 of the 16 SSE registers of the x86-64
/// baseline, which leaves room for the W row and the broadcast x value.
inline constexpr std::size_t kMr = 4;
inline constexpr std::size_t kNr = 8;

namespace detail {

/// Columns [j0, j0 + NR) of MR consecutive rows of Y = X · W, accumulated in
/// registers. x and y point at the block's first row; ldx and ldy are the
/// row strides.
template <std::size_t MR, std::size_t NR>
inline void xw_tile(const real_t* x, std::size_t ldx, ConstMatrixView W, std::size_t j0, real_t* y,
                    std::size_t ldy, bool accumulate) {
  real_t acc[MR][NR];
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t c = 0; c < NR; ++c) acc[r][c] = accumulate ? y[r * ldy + j0 + c] : real_t{0};
  for (std::size_t k = 0; k < W.rows; ++k) {
    const real_t* w = W.row(k) + j0;
    for (std::size_t r = 0; r < MR; ++r) {
      const real_t a = x[r * ldx + k];
#pragma omp simd
      for (std::size_t c = 0; c < NR; ++c) acc[r][c] += a * w[c];
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t c = 0; c < NR; ++c) y[r * ldy + j0 + c] = acc[r][c];
}

/// Every column of MR rows from j0 on: NR-wide tiles, then the remainder
/// at half the width, down to single columns.
template <std::size_t MR, std::size_t NR>
inline void xw_tile_cols(const real_t* x, std::size_t ldx, ConstMatrixView W, std::size_t j0,
                         real_t* y, std::size_t ldy, bool accumulate) {
  for (; j0 + NR <= W.cols; j0 += NR) xw_tile<MR, NR>(x, ldx, W, j0, y, ldy, accumulate);
  if constexpr (NR > 1) xw_tile_cols<MR, NR / 2>(x, ldx, W, j0, y, ldy, accumulate);
}

/// Rows [i0, X.rows) in MR x NR tiles: MR-row blocks, then the remainder
/// at half the height. gemm's AVX2 variant runs it with a wider tile.
template <std::size_t MR, std::size_t NR>
inline void xw_tile_rows(ConstMatrixView X, ConstMatrixView W, MatrixView Y, std::size_t i0,
                         bool accumulate) {
  for (; i0 + MR <= X.rows; i0 += MR)
    xw_tile_cols<MR, NR>(X.row(i0), X.cols, W, 0, Y.row(i0), Y.cols, accumulate);
  if constexpr (MR > 1) xw_tile_rows<MR / 2, NR>(X, W, Y, i0, accumulate);
}

}  // namespace detail

/// Y = X · W, or Y += X · W when `accumulate`: row i of Y is bitwise
/// xw(X.row(i), W, Y.row(i), accumulate). X is m x W.rows, Y m x W.cols.
inline void xw_rows(ConstMatrixView X, ConstMatrixView W, MatrixView Y, bool accumulate = false) {
  detail::xw_tile_rows<kMr, kNr>(X, W, Y, 0, accumulate);
}

/// y += b over n values.
inline void add_bias(const real_t* b, std::size_t n, real_t* y) {
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j) y[j] += b[j];
}

/// The affine row y = x · W + b. The bias lands after the whole k sum.
inline void affine(const real_t* x, ConstMatrixView W, const real_t* b, real_t* y) {
  xw(x, W, y);
  add_bias(b, W.cols, y);
}

/// The SAGE/GCN combine (§6.1): out = (agg + h) · inv, inv = 1/(deg+1).
/// `out` may alias `agg`.
inline void sage_combine(const real_t* agg, const real_t* h, real_t inv, std::size_t d,
                         real_t* out) {
#pragma omp simd
  for (std::size_t j = 0; j < d; ++j) out[j] = (agg[j] + h[j]) * inv;
}

/// out = x · s (the R-GCN per-relation mean). `out` may alias `x`.
inline void scale(const real_t* x, real_t s, std::size_t d, real_t* out) {
#pragma omp simd
  for (std::size_t j = 0; j < d; ++j) out[j] = x[j] * s;
}

/// y = max(x, 0). `y` may alias `x`.
inline void relu(const real_t* x, std::size_t n, real_t* y) {
#pragma omp simd
  for (std::size_t j = 0; j < n; ++j) y[j] = x[j] > 0 ? x[j] : 0;
}

/// acc += Σ src[u] over `nbrs` in the given order, through Alg. 3's
/// copy-lhs/sum row kernel. The caller seeds acc (zeros for a plain sum).
inline void add_neighbor_rows(std::span<const vid_t> nbrs, ConstMatrixView src, real_t* acc) {
  static const RowKernelFn kernel = lookup_row_kernel(BinaryOp::kCopyLhs, ReduceOp::kSum);
  kernel(nbrs.data(), nullptr, nbrs.size(), src.data, nullptr, src.cols, acc);
}

/// Σ x[j] · y[j] in ascending j. Deliberately not an `omp simd` reduction.
inline real_t dot(const real_t* x, const real_t* y, std::size_t n) {
  real_t s = 0;
  for (std::size_t j = 0; j < n; ++j) s += x[j] * y[j];
  return s;
}

/// One GAT destination: e_u = LeakyReLU(src_term[u] + dst_term) over
/// `nbrs`, α = softmax(e) (max-stabilized), out = Σ α_u · z[u]. `alpha`
/// receives α (nbrs.size() values). A destination without in-edges outputs
/// zeros. `src_term` and `z` are indexed by neighbour id.
inline void gat_attend(std::span<const vid_t> nbrs, const real_t* src_term, real_t dst_term,
                       real_t slope, ConstMatrixView z, real_t* alpha, real_t* out) {
  const std::size_t d = z.cols;
  std::fill(out, out + d, real_t{0});
  if (nbrs.empty()) return;
  real_t max_score = -std::numeric_limits<real_t>::infinity();
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const real_t raw = src_term[static_cast<std::size_t>(nbrs[i])] + dst_term;
    alpha[i] = raw > 0 ? raw : slope * raw;
    max_score = std::max(max_score, alpha[i]);
  }
  real_t denom = 0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    alpha[i] = std::exp(alpha[i] - max_score);
    denom += alpha[i];
  }
  const real_t inv = 1.0f / denom;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    alpha[i] *= inv;
    const real_t a = alpha[i];
    const real_t* zu = z.row(static_cast<std::size_t>(nbrs[i]));
#pragma omp simd
    for (std::size_t j = 0; j < d; ++j) out[j] += a * zu[j];
  }
}

}  // namespace distgnn::rows
