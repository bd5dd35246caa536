#include "nn/gemm.hpp"

#include "nn/layer_rows.hpp"
#include "util/parallel.hpp"

#include <algorithm>
#include <stdexcept>

namespace distgnn {

void gemm(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  if (A.cols != B.rows || C.rows != A.rows || C.cols != B.cols)
    throw std::invalid_argument("gemm: shape mismatch");
  const std::size_t m = A.rows;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < m; ++i) rows::xw(A.row(i), B, C.row(i), accumulate);
}

void gemm_at_b(ConstMatrixView A, ConstMatrixView B, MatrixView C, bool accumulate) {
  // A stored (k x m), B (k x n), C (m x n).
  if (A.rows != B.rows || C.rows != A.cols || C.cols != B.cols)
    throw std::invalid_argument("gemm_at_b: shape mismatch");
  const std::size_t k = A.rows, m = A.cols, n = B.cols;
  if (!accumulate) {
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < m; ++i) {
      real_t* c = C.row(i);
      for (std::size_t j = 0; j < n; ++j) c[j] = 0;
    }
  }
  // Parallelize over stripes of C's rows to avoid write collisions: each
  // thread walks all of A/B but only updates its stripe of C.
#pragma omp parallel
  {
    const int nt = par::num_threads();
    const int tid = par::thread_id();
    const std::size_t stripe = (m + static_cast<std::size_t>(nt) - 1) / static_cast<std::size_t>(nt);
    const std::size_t begin = std::min(m, static_cast<std::size_t>(tid) * stripe);
    const std::size_t end = std::min(m, begin + stripe);
    if (begin < end) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        const real_t* a = A.row(kk);
        const real_t* b = B.row(kk);
        for (std::size_t i = begin; i < end; ++i) {
          const real_t aki = a[i];
          if (aki == 0) continue;
          real_t* c = C.row(i);
#pragma omp simd
          for (std::size_t j = 0; j < n; ++j) c[j] += aki * b[j];
        }
      }
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

void add_row_bias(MatrixView M, ConstMatrixView bias) {
  if (bias.rows != 1 || bias.cols != M.cols)
    throw std::invalid_argument("add_row_bias: bias must be 1 x cols");
  const real_t* b = bias.row(0);
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < M.rows; ++i) rows::add_bias(b, M.cols, M.row(i));
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
