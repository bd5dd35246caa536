#include "kernels/sddmm.hpp"

#include <stdexcept>

namespace distgnn {

void sddmm_elementwise(const EdgeList& edges, ConstMatrixView fV, BinaryOp binary, MatrixView out) {
  if (out.rows != edges.edges.size())
    throw std::invalid_argument("sddmm_elementwise: out rows must equal edge count");
  if (out.cols != fV.cols)
    throw std::invalid_argument("sddmm_elementwise: out and fV widths differ");
  const std::size_t d = fV.cols;
  const eid_t m = edges.num_edges();
#pragma omp parallel for schedule(static)
  for (eid_t e = 0; e < m; ++e) {
    const Edge& edge = edges.edges[static_cast<std::size_t>(e)];
    const real_t* lhs = fV.row(static_cast<std::size_t>(edge.src));
    const real_t* rhs = fV.row(static_cast<std::size_t>(edge.dst));
    real_t* o = out.row(static_cast<std::size_t>(e));
    switch (binary) {
      case BinaryOp::kAdd:
#pragma omp simd
        for (std::size_t j = 0; j < d; ++j) o[j] = lhs[j] + rhs[j];
        break;
      case BinaryOp::kSub:
#pragma omp simd
        for (std::size_t j = 0; j < d; ++j) o[j] = lhs[j] - rhs[j];
        break;
      case BinaryOp::kMul:
#pragma omp simd
        for (std::size_t j = 0; j < d; ++j) o[j] = lhs[j] * rhs[j];
        break;
      case BinaryOp::kDiv:
#pragma omp simd
        for (std::size_t j = 0; j < d; ++j) o[j] = lhs[j] / rhs[j];
        break;
      case BinaryOp::kCopyLhs:
#pragma omp simd
        for (std::size_t j = 0; j < d; ++j) o[j] = lhs[j];
        break;
      case BinaryOp::kCopyRhs:
#pragma omp simd
        for (std::size_t j = 0; j < d; ++j) o[j] = rhs[j];
        break;
    }
  }
}

// Stays on the baseline ISA, unlike the row kernels (kernels/isa.hpp): the
// `omp simd reduction` below reassociates the dot product by vector width,
// so an AVX2 build of it gives other bits. A whole-library -mavx2 -mno-fma
// build, which also widens gemm_a_bt's reduction, moved train-4r's
// nn.loss_final at seed 2 from 3.5309912961162295 to 3.530991295561404.
void sddmm_dot(const EdgeList& edges, ConstMatrixView fV, MatrixView out) {
  if (out.rows != edges.edges.size() || out.cols != 1)
    throw std::invalid_argument("sddmm_dot: out must be |E| x 1");
  const std::size_t d = fV.cols;
  const eid_t m = edges.num_edges();
#pragma omp parallel for schedule(static)
  for (eid_t e = 0; e < m; ++e) {
    const Edge& edge = edges.edges[static_cast<std::size_t>(e)];
    const real_t* lhs = fV.row(static_cast<std::size_t>(edge.src));
    const real_t* rhs = fV.row(static_cast<std::size_t>(edge.dst));
    real_t acc = 0;
#pragma omp simd reduction(+ : acc)
    for (std::size_t j = 0; j < d; ++j) acc += lhs[j] * rhs[j];
    out.row(static_cast<std::size_t>(e))[0] = acc;
  }
}

}  // namespace distgnn
