// Host-width kernel variants.
//
// LIBXSMM JIT-compiles each kernel for the host's vector ISA. This repo gets
// the same effect ahead of time: the kernels whose float operations are
// element-wise (gemm / gemm_bias row blocks, the gemm_at_b stripe,
// column_sums, and the Alg. 3 row kernels) are compiled twice from one
// source, once for the x86-64 baseline (SSE2, 4 lanes) and once under
// `DISTGNN_TARGET_AVX2` (8 lanes, no FMA). The variant is picked once per
// process from the CPU.
//
// Both variants are bitwise identical: every output starts from the same
// value and adds its terms in the same order, with a separate multiply and
// add (the build passes -ffp-contract=off, and the AVX2 target leaves FMA
// off). Only the register tile and the vector width differ. gemm_a_bt,
// whose `omp simd reduction` reassociates a sum by vector width, stays on
// the baseline ISA.
#pragma once

namespace distgnn::kernels {

/// A kernel variant: the instruction set it is compiled for.
enum class Isa { kBaseline, kAvx2 };

/// True when this build has the variant and this CPU runs it.
bool isa_supported(Isa isa);

/// The variant the dispatched kernels run: the widest supported one,
/// decided on first use and fixed for the life of the process.
Isa host_isa();

/// "baseline" or "avx2".
const char* to_string(Isa isa);

/// to_string(host_isa()).
const char* active_isa();

}  // namespace distgnn::kernels

// DISTGNN_HAVE_AVX2_VARIANT is 1 when the AVX2 variants are compiled in:
// GCC or clang targeting x86-64. Elsewhere the baseline is the only path.
// DISTGNN_TARGET_AVX2 marks a variant's entry point. `flatten` inlines the
// whole tile template tree into it: without it the templates stay
// out-of-line baseline code and the entry point gains nothing.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DISTGNN_HAVE_AVX2_VARIANT 1
#define DISTGNN_TARGET_AVX2 [[gnu::target("avx2"), gnu::flatten]]
#else
#define DISTGNN_HAVE_AVX2_VARIANT 0
#endif
