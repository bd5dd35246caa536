// Dense matrix products for the GNN's MLP stages. OpenMP over output rows;
// each row of gemm is rows::xw (nn/layer_rows.hpp), the i-k-j row serving
// also runs. Sizes here are tall-skinny (|V| x few hundred), so this simple
// scheme is bandwidth-bound and adequate — the paper's hot spot is the
// aggregation, not the GEMMs.
#pragma once

#include "util/matrix.hpp"

namespace distgnn {

/// C = A (m x k) * B (k x n). If accumulate is false, C is overwritten.
void gemm(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate = false);

/// C = A^T (k x m -> m x k viewed transposed) * B. A is stored (k x m);
/// result C is (m x n): C[i][j] = sum_k A[k][i] * B[k][j].
void gemm_at_b(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate = false);

/// C = A (m x k) * B^T where B is stored (n x k): C[i][j] = sum_k A[i][k]*B[j][k].
void gemm_a_bt(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate = false);

/// row-broadcast add: each row of M += bias (bias is 1 x n).
void add_row_bias(MatrixView M, ConstMatrixView bias);

/// bias_grad[j] = sum_i M[i][j] (accumulates into out, 1 x n).
void column_sums(ConstMatrixView M, MatrixView out, bool accumulate = false);

}  // namespace distgnn
