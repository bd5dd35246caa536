#include "kernels/microkernel.hpp"

#include <stdexcept>
#include <string>

namespace distgnn {

namespace {

using kernels::Isa;

// The generic instantiation: neighbours in the outer loop, SIMD over the
// feature dimension, accumulator kept hot. The destination row is read and
// written once per call — the Alg. 3 property that LIBXSMM's reordering buys.
// Every acc[j] takes its terms in neighbour order, so the baseline and AVX2
// builds of it give the same bits as row_kernel_reference.
template <BinaryOp B, ReduceOp R>
void row_kernel_impl(const vid_t* nbrs, const eid_t* eids, std::size_t degree, const real_t* fV,
                     const real_t* fE, std::size_t d, real_t* acc) {
  for (std::size_t i = 0; i < degree; ++i) {
    const real_t* lhs = uses_lhs(B) ? fV + static_cast<std::size_t>(nbrs[i]) * d : nullptr;
    const real_t* rhs = uses_rhs(B) ? fE + static_cast<std::size_t>(eids[i]) * d : nullptr;
    if constexpr (B == BinaryOp::kCopyLhs) {
#pragma omp simd
      for (std::size_t j = 0; j < d; ++j) acc[j] = ReduceFn<R>::apply(acc[j], lhs[j]);
    } else if constexpr (B == BinaryOp::kCopyRhs) {
#pragma omp simd
      for (std::size_t j = 0; j < d; ++j) acc[j] = ReduceFn<R>::apply(acc[j], rhs[j]);
    } else {
#pragma omp simd
      for (std::size_t j = 0; j < d; ++j)
        acc[j] = ReduceFn<R>::apply(acc[j], BinaryFn<B>::apply(lhs[j], rhs[j]));
    }
  }
}

#if DISTGNN_HAVE_AVX2_VARIANT
template <BinaryOp B, ReduceOp R>
DISTGNN_TARGET_AVX2 void row_kernel_avx2(const vid_t* nbrs, const eid_t* eids, std::size_t degree,
                                         const real_t* fV, const real_t* fE, std::size_t d,
                                         real_t* acc) {
  row_kernel_impl<B, R>(nbrs, eids, degree, fV, fE, d, acc);
}
#endif

template <Isa I, BinaryOp B, ReduceOp R>
constexpr RowKernelFn row_kernel() {
#if DISTGNN_HAVE_AVX2_VARIANT
  if constexpr (I == Isa::kAvx2) return &row_kernel_avx2<B, R>;
#endif
  return &row_kernel_impl<B, R>;
}

template <Isa I, BinaryOp B>
constexpr RowKernelFn select_reduce(ReduceOp reduce) {
  switch (reduce) {
    case ReduceOp::kSum: return row_kernel<I, B, ReduceOp::kSum>();
    case ReduceOp::kMax: return row_kernel<I, B, ReduceOp::kMax>();
    case ReduceOp::kMin: return row_kernel<I, B, ReduceOp::kMin>();
  }
  return nullptr;
}

template <Isa I>
RowKernelFn select_binary(BinaryOp binary, ReduceOp reduce) {
  switch (binary) {
    case BinaryOp::kAdd: return select_reduce<I, BinaryOp::kAdd>(reduce);
    case BinaryOp::kSub: return select_reduce<I, BinaryOp::kSub>(reduce);
    case BinaryOp::kMul: return select_reduce<I, BinaryOp::kMul>(reduce);
    case BinaryOp::kDiv: return select_reduce<I, BinaryOp::kDiv>(reduce);
    case BinaryOp::kCopyLhs: return select_reduce<I, BinaryOp::kCopyLhs>(reduce);
    case BinaryOp::kCopyRhs: return select_reduce<I, BinaryOp::kCopyRhs>(reduce);
  }
  return nullptr;
}

}  // namespace

namespace detail {

RowKernelFn lookup_row_kernel(Isa isa, BinaryOp binary, ReduceOp reduce) {
  if (!kernels::isa_supported(isa))
    throw std::invalid_argument(std::string("lookup_row_kernel: the ") + kernels::to_string(isa) +
                                " variant does not run on this host");
  if (isa == Isa::kAvx2) return select_binary<Isa::kAvx2>(binary, reduce);
  return select_binary<Isa::kBaseline>(binary, reduce);
}

}  // namespace detail

RowKernelFn lookup_row_kernel(BinaryOp binary, ReduceOp reduce) {
  return detail::lookup_row_kernel(kernels::host_isa(), binary, reduce);
}

namespace {

real_t apply_binary(BinaryOp op, real_t x, real_t y) {
  switch (op) {
    case BinaryOp::kAdd: return x + y;
    case BinaryOp::kSub: return x - y;
    case BinaryOp::kMul: return x * y;
    case BinaryOp::kDiv: return x / y;
    case BinaryOp::kCopyLhs: return x;
    case BinaryOp::kCopyRhs: return y;
  }
  return 0;
}

real_t apply_reduce(ReduceOp op, real_t z, real_t v) {
  switch (op) {
    case ReduceOp::kSum: return z + v;
    case ReduceOp::kMax: return std::max(z, v);
    case ReduceOp::kMin: return std::min(z, v);
  }
  return 0;
}

}  // namespace

void row_kernel_reference(BinaryOp binary, ReduceOp reduce, const vid_t* nbrs, const eid_t* eids,
                          std::size_t degree, const real_t* fV, const real_t* fE, std::size_t d,
                          real_t* acc) {
  for (std::size_t i = 0; i < degree; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      const real_t lhs = uses_lhs(binary) ? fV[static_cast<std::size_t>(nbrs[i]) * d + j] : real_t{0};
      const real_t rhs = uses_rhs(binary) ? fE[static_cast<std::size_t>(eids[i]) * d + j] : real_t{0};
      acc[j] = apply_reduce(reduce, acc[j], apply_binary(binary, lhs, rhs));
    }
  }
}

}  // namespace distgnn
