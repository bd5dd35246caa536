#include "nn/gemm.hpp"

#include "nn/layer_rows.hpp"
#include "util/parallel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace distgnn {

namespace {

// gemm_at_b blocking. A chunk of kKc rows of A and B (160 KiB at the
// 128 x 32 weight gradient) stays in L2 while each of a thread's C tiles
// passes over it. A tile is one row of C by up to kAtbNr columns: its
// accumulators fill 8 SSE registers, and one zero test of A[kk][i] covers
// the whole tile.
constexpr std::size_t kKc = 256;
constexpr std::size_t kAtbNr = 32;

/// c[j0, j0 + NR) += Σ A[kk][i] · B[kk][j0 + ·] over kk in [k0, k1)
/// ascending, skipping terms with A[kk][i] == 0; the tile stays in
/// registers for the whole chunk.
template <std::size_t NR>
void at_b_tile(ConstMatrixView A, ConstMatrixView B, std::size_t k0, std::size_t k1, std::size_t i,
               std::size_t j0, real_t* c) {
  real_t acc[NR];
  for (std::size_t j = 0; j < NR; ++j) acc[j] = c[j0 + j];
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const real_t a = A.row(kk)[i];
    if (a == 0) continue;
    const real_t* b = B.row(kk) + j0;
#pragma omp simd
    for (std::size_t j = 0; j < NR; ++j) acc[j] += a * b[j];
  }
  for (std::size_t j = 0; j < NR; ++j) c[j0 + j] = acc[j];
}

/// Every column of C row i over one k chunk: NR-wide tiles, then the
/// remainder at half the width, down to single columns.
template <std::size_t NR>
void at_b_tile_cols(ConstMatrixView A, ConstMatrixView B, std::size_t k0, std::size_t k1,
                    std::size_t i, std::size_t j0, real_t* c) {
  for (; j0 + NR <= B.cols; j0 += NR) at_b_tile<NR>(A, B, k0, k1, i, j0, c);
  if constexpr (NR > 1) at_b_tile_cols<NR / 2>(A, B, k0, k1, i, j0, c);
}

// Rows per block of gemm and gemm_bias: each block is one rows::xw_rows call.
constexpr std::size_t kRowBlock = 64;

/// C = A · B (or C += A · B), then + bias on every row when bias is set,
/// over static-scheduled row blocks.
void xw_row_blocks(const char* caller, ConstMatrixView A, ConstMatrixView B, MatrixView C,
                   bool accumulate, const real_t* bias) {
  if (A.cols != B.rows || C.rows != A.rows || C.cols != B.cols)
    throw std::invalid_argument(std::string(caller) + ": shape mismatch");
  const std::size_t m = A.rows;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < m; i += kRowBlock) {
    const std::size_t count = std::min(kRowBlock, m - i);
    rows::xw_rows({A.row(i), count, A.cols}, B, {C.row(i), count, C.cols}, accumulate);
    if (bias != nullptr)
      for (std::size_t r = i; r < i + count; ++r) rows::add_bias(bias, C.cols, C.row(r));
  }
}

}  // namespace

void gemm(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  xw_row_blocks("gemm", A, B, C, accumulate, /*bias=*/nullptr);
}

void gemm_bias(ConstMatrixView A, ConstMatrixView B, const real_t* bias, MatrixView C) {
  xw_row_blocks("gemm_bias", A, B, C, /*accumulate=*/false, bias);
}

void gemm_at_b(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  // A stored (k x m), B (k x n), C (m x n).
  if (A.rows != B.rows || C.rows != A.cols || C.cols != B.cols)
    throw std::invalid_argument("gemm_at_b: shape mismatch");
  const std::size_t k = A.rows, m = A.cols, n = B.cols;
  // Each thread owns a stripe of C's rows, so no two threads write one
  // tile, and walks A and B one k chunk at a time.
#pragma omp parallel
  {
    const auto nt = static_cast<std::size_t>(par::num_threads());
    const auto tid = static_cast<std::size_t>(par::thread_id());
    const std::size_t begin = m * tid / nt, end = m * (tid + 1) / nt;
    if (!accumulate)
      for (std::size_t i = begin; i < end; ++i) std::fill(C.row(i), C.row(i) + n, real_t{0});
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
      const std::size_t k1 = std::min(k, k0 + kKc);
      for (std::size_t i = begin; i < end; ++i)
        at_b_tile_cols<kAtbNr>(A, B, k0, k1, i, 0, C.row(i));
    }
  }
}

void gemm_a_bt(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  // A (m x k), B stored (n x k), C (m x n).
  if (A.cols != B.cols || C.rows != A.rows || C.cols != B.rows)
    throw std::invalid_argument("gemm_a_bt: shape mismatch");
  const std::size_t m = A.rows, k = A.cols, n = B.rows;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < m; ++i) {
    const real_t* a = A.row(i);
    real_t* c = C.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      const real_t* b = B.row(j);
      real_t acc = 0;
#pragma omp simd reduction(+ : acc)
      for (std::size_t kk = 0; kk < k; ++kk) acc += a[kk] * b[kk];
      c[j] = accumulate ? c[j] + acc : acc;
    }
  }
}

void column_sums(ConstMatrixView M, MatrixView out, bool accumulate) {
  if (out.rows != 1 || out.cols != M.cols)
    throw std::invalid_argument("column_sums: out must be 1 x cols");
  real_t* o = out.row(0);
  if (!accumulate)
    for (std::size_t j = 0; j < M.cols; ++j) o[j] = 0;
  for (std::size_t i = 0; i < M.rows; ++i) {
    const real_t* r = M.row(i);
#pragma omp simd
    for (std::size_t j = 0; j < M.cols; ++j) o[j] += r[j];
  }
}

}  // namespace distgnn
