#include "kernels/isa.hpp"

namespace distgnn::kernels {

bool isa_supported(Isa isa) {
  switch (isa) {
    case Isa::kBaseline: return true;
    case Isa::kAvx2:
#if DISTGNN_HAVE_AVX2_VARIANT
      // libgcc and compiler-rt report avx2 only when the OS saves the YMM
      // state. The init call makes this safe from a static initializer.
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

Isa host_isa() {
  static const Isa isa = isa_supported(Isa::kAvx2) ? Isa::kAvx2 : Isa::kBaseline;
  return isa;
}

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kBaseline: return "baseline";
    case Isa::kAvx2: return "avx2";
  }
  return "?";
}

const char* active_isa() { return to_string(host_isa()); }

}  // namespace distgnn::kernels
