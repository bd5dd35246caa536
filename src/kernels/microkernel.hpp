// Loop-reordered, vectorized row micro-kernels (Alg. 3 of the paper).
//
// The paper delegates this to LIBXSMM, which JITs an optimal SIMD kernel per
// (operator, reduction, width) triple. We reproduce the algorithmic content
// without runtime code generation: each (⊗, ⊕) pair gets a compile-time
// instantiated kernel whose inner loop is `omp simd` over the feature
// dimension and which touches the destination row exactly once per call.
// A registry resolves the function pointer once per aggregate invocation —
// a "dispatch-once" analogue of LIBXSMM's JIT-handle lookup. Like LIBXSMM's,
// the kernel it returns is built for the host's vector ISA: the table has a
// baseline and an AVX2 variant of every pair (kernels/isa.hpp), with the same
// bits.
#pragma once

#include <cstddef>

#include "kernels/isa.hpp"
#include "kernels/ops.hpp"
#include "util/types.hpp"

namespace distgnn {

/// Computes, for one destination row:
///   acc[j] = reduce(acc[j], binary(fV[nbrs[i]][j], fE[eids[i]][j]))  for all i, j.
/// `acc` must hold `d` values and already contain the running aggregate
/// (caller seeds it with fO[v] or the reduction identity).
/// `fE` may be null iff the binary op does not read the rhs.
using RowKernelFn = void (*)(const vid_t* nbrs, const eid_t* eids, std::size_t degree,
                             const real_t* fV, const real_t* fE, std::size_t d, real_t* acc);

/// Returns the kernel for the operator pair, built for kernels::host_isa();
/// never null.
RowKernelFn lookup_row_kernel(BinaryOp binary, ReduceOp reduce);

namespace detail {
/// The kernel for the pair from `isa`'s table, for the tests that compare
/// the variants; throws std::invalid_argument when the host cannot run it.
RowKernelFn lookup_row_kernel(kernels::Isa isa, BinaryOp binary, ReduceOp reduce);
}  // namespace detail

/// Scalar reference kernel used by tests to validate the vectorized ones.
void row_kernel_reference(BinaryOp binary, ReduceOp reduce, const vid_t* nbrs, const eid_t* eids,
                          std::size_t degree, const real_t* fV, const real_t* fE, std::size_t d,
                          real_t* acc);

}  // namespace distgnn
