#include "comm/compression.hpp"

#include <cstring>
#include <stdexcept>

namespace distgnn {

std::string to_string(HaloPrecision precision) {
  switch (precision) {
    case HaloPrecision::kFp32: return "fp32";
    case HaloPrecision::kBf16: return "bf16";
    case HaloPrecision::kFp16: return "fp16";
  }
  return "?";
}

std::uint16_t float_to_bf16(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  // Round to nearest even on the truncated 16 mantissa bits.
  const std::uint32_t rounding = 0x7fffu + ((bits >> 16) & 1u);
  return static_cast<std::uint16_t>((bits + rounding) >> 16);
}

float bf16_to_float(std::uint16_t bits) {
  const std::uint32_t expanded = static_cast<std::uint32_t>(bits) << 16;
  float value;
  std::memcpy(&value, &expanded, sizeof(value));
  return value;
}

std::uint16_t float_to_fp16(float value) {
  std::uint32_t f;
  std::memcpy(&f, &value, sizeof(f));
  const std::uint32_t sign = (f >> 16) & 0x8000u;
  std::int32_t exponent = static_cast<std::int32_t>((f >> 23) & 0xff) - 127 + 15;
  std::uint32_t mantissa = f & 0x7fffffu;

  if (exponent >= 31) return static_cast<std::uint16_t>(sign | 0x7c00u);  // inf/overflow
  if (exponent <= 0) {
    // Subnormal or underflow to zero.
    if (exponent < -10) return static_cast<std::uint16_t>(sign);
    mantissa |= 0x800000u;  // implicit leading 1
    const int shift = 14 - exponent;
    const std::uint32_t sub = mantissa >> shift;
    const std::uint32_t rem = mantissa & ((1u << shift) - 1);
    const std::uint32_t half = 1u << (shift - 1);
    std::uint32_t rounded = sub + ((rem > half || (rem == half && (sub & 1))) ? 1 : 0);
    return static_cast<std::uint16_t>(sign | rounded);
  }
  // Normal: round mantissa to 10 bits, nearest even.
  std::uint32_t rounded = mantissa + 0xfffu + ((mantissa >> 13) & 1u);
  if (rounded & 0x800000u) {  // mantissa overflow bumps the exponent
    rounded = 0;
    ++exponent;
    if (exponent >= 31) return static_cast<std::uint16_t>(sign | 0x7c00u);
  }
  return static_cast<std::uint16_t>(sign | (static_cast<std::uint32_t>(exponent) << 10) |
                                    (rounded >> 13));
}

float fp16_to_float(std::uint16_t bits) {
  const std::uint32_t sign = (static_cast<std::uint32_t>(bits) & 0x8000u) << 16;
  const std::uint32_t exponent = (bits >> 10) & 0x1fu;
  const std::uint32_t mantissa = bits & 0x3ffu;
  std::uint32_t f;
  if (exponent == 0) {
    if (mantissa == 0) {
      f = sign;  // signed zero
    } else {
      // Subnormal: normalize.
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400u) == 0);
      f = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23) | ((m & 0x3ffu) << 13);
    }
  } else if (exponent == 31) {
    f = sign | 0x7f800000u | (mantissa << 13);  // inf / nan
  } else {
    f = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float value;
  std::memcpy(&value, &f, sizeof(value));
  return value;
}

namespace {

std::uint16_t encode_one(float value, HaloPrecision precision) {
  return precision == HaloPrecision::kBf16 ? float_to_bf16(value) : float_to_fp16(value);
}

float decode_one(std::uint16_t bits, HaloPrecision precision) {
  return precision == HaloPrecision::kBf16 ? bf16_to_float(bits) : fp16_to_float(bits);
}

}  // namespace

std::vector<real_t> encode_halo(std::vector<real_t> values, HaloPrecision precision) {
  if (precision == HaloPrecision::kFp32) return values;
  std::vector<real_t> packed((values.size() + 1) / 2);
  for (std::size_t i = 0; i < values.size(); i += 2) {
    const std::uint32_t lo = encode_one(values[i], precision);
    const std::uint32_t hi =
        i + 1 < values.size() ? encode_one(values[i + 1], precision) : 0u;
    const std::uint32_t word = lo | (hi << 16);
    std::memcpy(&packed[i / 2], &word, sizeof(word));
  }
  return packed;
}

std::vector<real_t> decode_halo(std::vector<real_t> packed, std::size_t count,
                                HaloPrecision precision) {
  if (precision == HaloPrecision::kFp32) {
    if (packed.size() != count) throw std::invalid_argument("decode_halo: fp32 size mismatch");
    return packed;
  }
  if (packed.size() != (count + 1) / 2)
    throw std::invalid_argument("decode_halo: packed size mismatch");
  std::vector<real_t> values(count);
  for (std::size_t i = 0; i < count; i += 2) {
    std::uint32_t word;
    std::memcpy(&word, &packed[i / 2], sizeof(word));
    values[i] = decode_one(static_cast<std::uint16_t>(word & 0xffffu), precision);
    if (i + 1 < count)
      values[i + 1] = decode_one(static_cast<std::uint16_t>(word >> 16), precision);
  }
  return values;
}

}  // namespace distgnn
