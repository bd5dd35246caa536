#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "comm/compression.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

TEST(Bf16, RoundTripsExactlyRepresentableValues) {
  for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f, 1024.0f}) {
    EXPECT_EQ(bf16_to_float(float_to_bf16(v)), v) << v;
  }
}

TEST(Bf16, RelativeErrorBounded) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.uniform(-100.0f, 100.0f);
    const float back = bf16_to_float(float_to_bf16(v));
    // bf16 has 8 mantissa bits: relative error < 2^-8.
    EXPECT_LE(std::abs(back - v), std::abs(v) * (1.0f / 256.0f) + 1e-30f) << v;
  }
}

TEST(Bf16, PreservesSignAndInfinity) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_to_float(float_to_bf16(inf)), inf);
  EXPECT_EQ(bf16_to_float(float_to_bf16(-inf)), -inf);
  EXPECT_EQ(std::signbit(bf16_to_float(float_to_bf16(-0.0f))), true);
}

TEST(Fp16, RoundTripsExactlyRepresentableValues) {
  for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -0.25f, 1024.0f, 65504.0f}) {
    EXPECT_EQ(fp16_to_float(float_to_fp16(v)), v) << v;
  }
}

TEST(Fp16, RelativeErrorBounded) {
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.uniform(-1000.0f, 1000.0f);
    const float back = fp16_to_float(float_to_fp16(v));
    // fp16 has 10 mantissa bits: relative error < 2^-10 for normal values.
    EXPECT_LE(std::abs(back - v), std::abs(v) * (1.0f / 1024.0f) + 1e-6f) << v;
  }
}

TEST(Fp16, OverflowSaturatesToInfinity) {
  EXPECT_EQ(fp16_to_float(float_to_fp16(1e6f)), std::numeric_limits<float>::infinity());
  EXPECT_EQ(fp16_to_float(float_to_fp16(-1e6f)), -std::numeric_limits<float>::infinity());
}

TEST(Fp16, SubnormalsRoundTripApproximately) {
  // Smallest normal fp16 is 2^-14 ~ 6.1e-5; below that we are subnormal.
  for (const float v : {3e-5f, 1e-5f, 6e-8f}) {
    const float back = fp16_to_float(float_to_fp16(v));
    EXPECT_NEAR(back, v, 6e-8f) << v;
  }
}

class HaloCodecTest : public ::testing::TestWithParam<std::tuple<HaloPrecision, int>> {};

TEST_P(HaloCodecTest, EncodeDecodeRoundTrip) {
  const auto [precision, count] = GetParam();
  Rng rng(7);
  std::vector<real_t> values(static_cast<std::size_t>(count));
  for (auto& v : values) v = rng.uniform(-10.0f, 10.0f);

  const auto packed = encode_halo(values, precision);
  const auto back = decode_halo(packed, values.size(), precision);
  ASSERT_EQ(back.size(), values.size());
  const float tol = precision == HaloPrecision::kFp32 ? 0.0f
                    : precision == HaloPrecision::kFp16 ? 0.02f
                                                        : 0.08f;
  for (std::size_t i = 0; i < values.size(); ++i)
    EXPECT_NEAR(back[i], values[i], std::abs(values[i]) * tol + 1e-6f) << i;

  // Wire size halves for 16-bit formats (odd counts round up).
  if (precision == HaloPrecision::kFp32) {
    EXPECT_EQ(packed.size(), values.size());
  } else {
    EXPECT_EQ(packed.size(), (values.size() + 1) / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionsAndSizes, HaloCodecTest,
    ::testing::Combine(::testing::Values(HaloPrecision::kFp32, HaloPrecision::kBf16,
                                         HaloPrecision::kFp16),
                       ::testing::Values(0, 1, 2, 7, 128, 1001)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST(HaloCodec, DecodeValidatesSizes) {
  std::vector<real_t> packed(3);
  EXPECT_THROW(decode_halo(packed, 10, HaloPrecision::kBf16), std::invalid_argument);
  EXPECT_THROW(decode_halo(packed, 4, HaloPrecision::kFp32), std::invalid_argument);
}

}  // namespace
}  // namespace distgnn
