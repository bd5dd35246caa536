// Dense matrix products for the GNN's MLP stages. At the full-graph shapes
// (|V| x 128 or 32 times a weight of a few dozen columns) the MLP, not the
// aggregation, is the larger share of a single-socket epoch, so these run
// register-tiled kernels:
//   - gemm (and gemm_bias, the Linear forward) hands each thread blocks of
//     rows and runs rows::xw_rows (nn/layer_rows.hpp) on each: row i is
//     bitwise rows::xw, the row serving also runs;
//   - gemm_at_b (the weight gradient) walks A and B in L2-sized k chunks
//     and holds each tile of C in registers across a chunk; every C[i][j]
//     still adds its terms in ascending k.
// So every output keeps the float operation order of the untiled loops.
//
// The gemm / gemm_bias row blocks, the gemm_at_b stripes and column_sums are
// compiled for the x86-64 baseline and for AVX2 (kernels/isa.hpp) and run
// the host's variant; both give the same bits. gemm_a_bt stays baseline.
#pragma once

#include "kernels/isa.hpp"
#include "util/matrix.hpp"

namespace distgnn {

/// C = A (m x k) * B (k x n). If accumulate is false, C is overwritten.
void gemm(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate = false);

/// C = A (m x k) * B (k x n) + bias row-wise (bias holds n values, added
/// after the full k sum): row i is bitwise rows::affine.
void gemm_bias(ConstMatrixView A, ConstMatrixView B, const real_t* bias, MatrixView C);

/// C = A^T (k x m -> m x k viewed transposed) * B. A is stored (k x m);
/// result C is (m x n): C[i][j] = sum_k A[k][i] * B[k][j], k ascending, with
/// the terms where A[k][i] == 0 skipped.
void gemm_at_b(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate = false);

/// C = A (m x k) * B^T where B is stored (n x k): C[i][j] = sum_k A[i][k]*B[j][k].
void gemm_a_bt(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate = false);

/// bias_grad[j] = sum_i M[i][j] (accumulates into out, 1 x n).
void column_sums(ConstMatrixView M, MatrixView out, bool accumulate = false);

namespace detail {

// One variant of each dispatched kernel, for the tests that compare the
// variants bit for bit. The functions above run kernels::host_isa()'s.
// Each throws std::invalid_argument when the host cannot run `isa`.
void gemm(kernels::Isa isa, ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate);
void gemm_bias(kernels::Isa isa, ConstMatrixView A, ConstMatrixView B, const real_t* bias,
               MatrixView C);
void gemm_at_b(kernels::Isa isa, ConstMatrixView A, ConstMatrixView B, MatrixView C,
               bool accumulate);
void column_sums(kernels::Isa isa, ConstMatrixView M, MatrixView out, bool accumulate);

}  // namespace detail

}  // namespace distgnn
