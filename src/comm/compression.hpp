// Low-precision halo-payload compression — the paper's §7 future work
// ("deploy low-precision data formats such FP16 and BFLOAT16" to further
// reduce communication volume). Partial aggregates are packed two 16-bit
// values per float slot before async_send and unpacked on receipt, halving
// the bytes on the wire; the ablation bench measures the accuracy cost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace distgnn {

enum class HaloPrecision {
  kFp32,  // no compression
  kBf16,  // truncated-mantissa bfloat16 (round-to-nearest-even)
  kFp16,  // IEEE binary16
};

std::string to_string(HaloPrecision precision);

/// Scalar conversions (exposed for tests).
std::uint16_t float_to_bf16(float value);
float bf16_to_float(std::uint16_t bits);
std::uint16_t float_to_fp16(float value);
float fp16_to_float(std::uint16_t bits);

/// Packs `values` into ceil(n/2) float slots of 16-bit codes. kFp32 returns
/// the input unchanged, moved rather than copied.
std::vector<real_t> encode_halo(std::vector<real_t> values, HaloPrecision precision);

/// Inverse of encode_halo; `count` is the original element count (the halo
/// plans know it, so it never travels on the wire).
std::vector<real_t> decode_halo(std::vector<real_t> packed, std::size_t count,
                                HaloPrecision precision);

}  // namespace distgnn
