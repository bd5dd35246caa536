#include "nn/gemm.hpp"

#include "nn/layer_rows.hpp"
#include "util/parallel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace distgnn {

namespace {

using kernels::Isa;

// gemm_at_b blocking. A chunk of kKc rows of A and B (160 KiB at the
// 128 x 32 weight gradient) stays in L2 while each of a thread's C tiles
// passes over it. One zero test of A[kk][i] covers a whole row of a tile.
constexpr std::size_t kKc = 256;

// The register tiles of each variant. Baseline: xw's 4 x 8 (rows::kMr x
// rows::kNr) and gemm_at_b's 1 x 32 accumulators fill 8 of the 16 SSE
// registers. AVX2: 4 x 16 and 2 x 32 fill 8 of the 16 YMM registers, which
// leaves room for the W or B row and the broadcast value.
template <Isa I>
struct Tile;
template <>
struct Tile<Isa::kBaseline> {
  static constexpr std::size_t xw_mr = rows::kMr, xw_nr = rows::kNr;
  static constexpr std::size_t atb_mr = 1, atb_nr = 32;
};
template <>
struct Tile<Isa::kAvx2> {
  static constexpr std::size_t xw_mr = 4, xw_nr = 16;
  static constexpr std::size_t atb_mr = 2, atb_nr = 32;
};

/// C rows [i, i + MR), columns [j0, j0 + NR): c += Σ A[kk][i + r] · B[kk][·]
/// over kk in [k0, k1) ascending, skipping terms with A[kk][i + r] == 0; the
/// tile stays in registers for the whole chunk.
template <std::size_t MR, std::size_t NR>
void at_b_tile(ConstMatrixView A, ConstMatrixView B, std::size_t k0, std::size_t k1, std::size_t i,
               std::size_t j0, MatrixView C) {
  real_t acc[MR][NR];
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t j = 0; j < NR; ++j) acc[r][j] = C.row(i + r)[j0 + j];
  for (std::size_t kk = k0; kk < k1; ++kk) {
    const real_t* a = A.row(kk) + i;
    const real_t* b = B.row(kk) + j0;
    for (std::size_t r = 0; r < MR; ++r) {
      if (a[r] == 0) continue;
#pragma omp simd
      for (std::size_t j = 0; j < NR; ++j) acc[r][j] += a[r] * b[j];
    }
  }
  for (std::size_t r = 0; r < MR; ++r)
    for (std::size_t j = 0; j < NR; ++j) C.row(i + r)[j0 + j] = acc[r][j];
}

/// Every column of C rows [i, i + MR) over one k chunk: NR-wide tiles, then
/// the remainder at half the width, down to single columns.
template <std::size_t MR, std::size_t NR>
void at_b_tile_cols(ConstMatrixView A, ConstMatrixView B, std::size_t k0, std::size_t k1,
                    std::size_t i, std::size_t j0, MatrixView C) {
  for (; j0 + NR <= B.cols; j0 += NR) at_b_tile<MR, NR>(A, B, k0, k1, i, j0, C);
  if constexpr (NR > 1) at_b_tile_cols<MR, NR / 2>(A, B, k0, k1, i, j0, C);
}

/// C rows [i, end) over one k chunk: MR-row blocks, then the remainder at
/// half the height.
template <std::size_t MR, std::size_t NR>
void at_b_tile_rows(ConstMatrixView A, ConstMatrixView B, std::size_t k0, std::size_t k1,
                    std::size_t i, std::size_t end, MatrixView C) {
  for (; i + MR <= end; i += MR) at_b_tile_cols<MR, NR>(A, B, k0, k1, i, 0, C);
  if constexpr (MR > 1) at_b_tile_rows<MR / 2, NR>(A, B, k0, k1, i, end, C);
}

// The kernel bodies, one source for every variant.

/// Y = X · W (or Y += X · W), then + bias on every row when bias is set.
template <Isa I>
void xw_block(ConstMatrixView X, ConstMatrixView W, MatrixView Y, bool accumulate,
              const real_t* bias) {
  rows::detail::xw_tile_rows<Tile<I>::xw_mr, Tile<I>::xw_nr>(X, W, Y, 0, accumulate);
  if (bias != nullptr)
    for (std::size_t r = 0; r < Y.rows; ++r) rows::add_bias(bias, Y.cols, Y.row(r));
}

/// C rows [begin, end) of C = Aᵀ · B (or C += Aᵀ · B), one k chunk at a time.
template <Isa I>
void at_b_stripe(ConstMatrixView A, ConstMatrixView B, MatrixView C, std::size_t begin,
                 std::size_t end, bool accumulate) {
  if (!accumulate)
    for (std::size_t i = begin; i < end; ++i) std::fill(C.row(i), C.row(i) + C.cols, real_t{0});
  for (std::size_t k0 = 0; k0 < A.rows; k0 += kKc) {
    const std::size_t k1 = std::min(A.rows, k0 + kKc);
    at_b_tile_rows<Tile<I>::atb_mr, Tile<I>::atb_nr>(A, B, k0, k1, begin, end, C);
  }
}

/// o[j] += Σ M[i][j] over i ascending.
void column_sums_rows(ConstMatrixView M, real_t* o) {
  for (std::size_t i = 0; i < M.rows; ++i) {
    const real_t* r = M.row(i);
#pragma omp simd
    for (std::size_t j = 0; j < M.cols; ++j) o[j] += r[j];
  }
}

struct GemmKernels {
  decltype(&xw_block<Isa::kBaseline>) xw_block;
  decltype(&at_b_stripe<Isa::kBaseline>) at_b_stripe;
  decltype(&column_sums_rows) column_sums;
};

#if DISTGNN_HAVE_AVX2_VARIANT
DISTGNN_TARGET_AVX2 void xw_block_avx2(ConstMatrixView X, ConstMatrixView W, MatrixView Y,
                                       bool accumulate, const real_t* bias) {
  xw_block<Isa::kAvx2>(X, W, Y, accumulate, bias);
}
DISTGNN_TARGET_AVX2 void at_b_stripe_avx2(ConstMatrixView A, ConstMatrixView B, MatrixView C,
                                          std::size_t begin, std::size_t end, bool accumulate) {
  at_b_stripe<Isa::kAvx2>(A, B, C, begin, end, accumulate);
}
DISTGNN_TARGET_AVX2 void column_sums_avx2(ConstMatrixView M, real_t* o) {
  column_sums_rows(M, o);
}
#endif

const GemmKernels& kernels_for(Isa isa, const char* caller) {
  static constexpr GemmKernels kBaseline{&xw_block<Isa::kBaseline>, &at_b_stripe<Isa::kBaseline>,
                                         &column_sums_rows};
  if (!kernels::isa_supported(isa))
    throw std::invalid_argument(std::string(caller) + ": the " + kernels::to_string(isa) +
                                " variant does not run on this host");
#if DISTGNN_HAVE_AVX2_VARIANT
  static constexpr GemmKernels kAvx2{&xw_block_avx2, &at_b_stripe_avx2, &column_sums_avx2};
  if (isa == Isa::kAvx2) return kAvx2;
#endif
  return kBaseline;
}

// Rows per block of gemm and gemm_bias: each block is one xw_block call.
constexpr std::size_t kRowBlock = 64;

/// C = A · B (or C += A · B), then + bias on every row when bias is set,
/// over static-scheduled row blocks.
void xw_row_blocks(Isa isa, const char* caller, ConstMatrixView A, ConstMatrixView B,
                   MatrixView C, bool accumulate, const real_t* bias) {
  if (A.cols != B.rows || C.rows != A.rows || C.cols != B.cols)
    throw std::invalid_argument(std::string(caller) + ": shape mismatch");
  const auto block = kernels_for(isa, caller).xw_block;
  const std::size_t m = A.rows;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < m; i += kRowBlock) {
    const std::size_t count = std::min(kRowBlock, m - i);
    block({A.row(i), count, A.cols}, B, {C.row(i), count, C.cols}, accumulate, bias);
  }
}

}  // namespace

namespace detail {

void gemm(Isa isa, ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  xw_row_blocks(isa, "gemm", A, B, C, accumulate, /*bias=*/nullptr);
}

void gemm_bias(Isa isa, ConstMatrixView A, ConstMatrixView B, const real_t* bias, MatrixView C) {
  xw_row_blocks(isa, "gemm_bias", A, B, C, /*accumulate=*/false, bias);
}

void gemm_at_b(Isa isa, ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  // A stored (k x m), B (k x n), C (m x n).
  if (A.rows != B.rows || C.rows != A.cols || C.cols != B.cols)
    throw std::invalid_argument("gemm_at_b: shape mismatch");
  const auto stripe = kernels_for(isa, "gemm_at_b").at_b_stripe;
  const std::size_t m = A.cols;
  // Each thread owns a stripe of C's rows, so no two threads write one
  // tile, and walks A and B one k chunk at a time.
#pragma omp parallel
  {
    const auto nt = static_cast<std::size_t>(par::num_threads());
    const auto tid = static_cast<std::size_t>(par::thread_id());
    stripe(A, B, C, m * tid / nt, m * (tid + 1) / nt, accumulate);
  }
}

void column_sums(Isa isa, ConstMatrixView M, MatrixView out, bool accumulate) {
  if (out.rows != 1 || out.cols != M.cols)
    throw std::invalid_argument("column_sums: out must be 1 x cols");
  const auto sums = kernels_for(isa, "column_sums").column_sums;
  real_t* o = out.row(0);
  if (!accumulate) std::fill(o, o + M.cols, real_t{0});
  sums(M, o);
}

}  // namespace detail

void gemm(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  detail::gemm(kernels::host_isa(), A, B, C, accumulate);
}

void gemm_bias(ConstMatrixView A, ConstMatrixView B, const real_t* bias, MatrixView C) {
  detail::gemm_bias(kernels::host_isa(), A, B, bias, C);
}

void gemm_at_b(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  detail::gemm_at_b(kernels::host_isa(), A, B, C, accumulate);
}

// Stays on the baseline ISA: the `omp simd reduction` below reassociates the
// k sum by vector width, so an AVX2 build of it gives other bits. A
// whole-library -mavx2 -mno-fma build moved train-4r's nn.loss_final at seed
// 2 from 3.5309912961162295 to 3.530991295561404.
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
  detail::column_sums(kernels::host_isa(), M, out, accumulate);
}

}  // namespace distgnn
