#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "nn/activations.hpp"
#include "nn/gemm.hpp"
#include "nn/graphsage_layer.hpp"
#include "nn/init.hpp"
#include "nn/layer_rows.hpp"
#include "nn/linear.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optim.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

DenseMatrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  DenseMatrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0f, 1.0f);
  return m;
}

DenseMatrix naive_gemm(const DenseMatrix& A, const DenseMatrix& B) {
  DenseMatrix C(A.rows(), B.cols(), 0);
  for (std::size_t i = 0; i < A.rows(); ++i)
    for (std::size_t k = 0; k < A.cols(); ++k)
      for (std::size_t j = 0; j < B.cols(); ++j) C.at(i, j) += A.at(i, k) * B.at(k, j);
  return C;
}

void expect_near(const DenseMatrix& a, const DenseMatrix& b, real_t tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_NEAR(a.data()[i], b.data()[i], tol);
}

TEST(Gemm, MatchesNaive) {
  Rng rng(1);
  const DenseMatrix A = random_matrix(13, 7, rng);
  const DenseMatrix B = random_matrix(7, 5, rng);
  DenseMatrix C(13, 5);
  gemm(A.cview(), B.cview(), C.view());
  expect_near(C, naive_gemm(A, B), 1e-4f);
}

TEST(Gemm, AccumulateAddsToExisting) {
  Rng rng(2);
  const DenseMatrix A = random_matrix(4, 3, rng);
  const DenseMatrix B = random_matrix(3, 4, rng);
  DenseMatrix C(4, 4, 1.0f);
  gemm(A.cview(), B.cview(), C.view(), /*accumulate=*/true);
  const DenseMatrix expect = naive_gemm(A, B);
  for (std::size_t i = 0; i < C.size(); ++i)
    ASSERT_NEAR(C.data()[i], expect.data()[i] + 1.0f, 1e-4f);
}

TEST(Gemm, TransposedVariants) {
  Rng rng(3);
  const DenseMatrix A = random_matrix(9, 6, rng);   // used as A^T: (6x9 logical)
  const DenseMatrix B = random_matrix(9, 4, rng);
  DenseMatrix C(6, 4);
  gemm_at_b(A.cview(), B.cview(), C.view());
  // Reference: C[i][j] = sum_k A[k][i] B[k][j].
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      real_t acc = 0;
      for (std::size_t k = 0; k < 9; ++k) acc += A.at(k, i) * B.at(k, j);
      ASSERT_NEAR(C.at(i, j), acc, 1e-4f);
    }

  const DenseMatrix D = random_matrix(5, 6, rng);  // B^T where B is (5x6)
  DenseMatrix E(6, 5);
  DenseMatrix At(6, 9);  // not used; ensure a_bt separately
  DenseMatrix X = random_matrix(6, 6, rng);
  DenseMatrix F(6, 5);
  gemm_a_bt(X.cview(), D.cview(), F.view());
  for (std::size_t i = 0; i < 6; ++i)
    for (std::size_t j = 0; j < 5; ++j) {
      real_t acc = 0;
      for (std::size_t k = 0; k < 6; ++k) acc += X.at(i, k) * D.at(j, k);
      ASSERT_NEAR(F.at(i, j), acc, 1e-4f);
    }
}

TEST(Gemm, ShapeChecks) {
  DenseMatrix A(2, 3), B(4, 5), C(2, 5);
  EXPECT_THROW(gemm(A.cview(), B.cview(), C.view()), std::invalid_argument);
}

TEST(Gemm, BiasAndColumnSums) {
  // M = ones(3 x 1) * ones(1 x 2) + bias.
  const DenseMatrix A(3, 1, 1.0f), B(1, 2, 1.0f);
  DenseMatrix M(3, 2);
  const real_t bias[2] = {0.5f, -0.5f};
  gemm_bias(A.cview(), B.cview(), bias, M.view());
  EXPECT_FLOAT_EQ(M.at(2, 0), 1.5f);
  EXPECT_FLOAT_EQ(M.at(2, 1), 0.5f);

  DenseMatrix sums(1, 2);
  column_sums(M.cview(), sums.view());
  EXPECT_FLOAT_EQ(sums.at(0, 0), 4.5f);
  EXPECT_FLOAT_EQ(sums.at(0, 1), 1.5f);
}

// NNPACK-style sweep of the register-tiled kernels: m, k and n cover full
// rows::kMr x rows::kNr tiles plus row and column remainders, and k = 257
// leaves one row past gemm_at_b's 256-row k chunk. The tiled kernels keep
// each output's float operation order, so every result is compared with
// memcmp against the per-row reference, not within a tolerance.
using kernels::Isa;
using GemmCase = std::tuple<Isa, std::size_t, std::size_t, std::size_t>;  // variant, m, k, n

// Each kernel variant (kernels/isa.hpp) against the per-row reference, bit
// for bit, in the style of a per-SIMD-width micro-kernel tester. The shapes
// leave remainders of both variants' register tiles: 4 x 8 and 4 x 16 for
// the x·W blocks, 1 x 32 and 2 x 32 for gemm_at_b.
class GemmSweep : public ::testing::TestWithParam<GemmCase> {
 protected:
  void SetUp() override {
    if (!kernels::isa_supported(std::get<0>(GetParam())))
      GTEST_SKIP() << "this host does not run the " << kernels::to_string(std::get<0>(GetParam()))
                   << " variant";
  }
  /// Uniform values with exact 0.0f and -0.0f sprinkled in.
  static DenseMatrix with_zeros(std::size_t rows, std::size_t cols, Rng& rng) {
    DenseMatrix m = random_matrix(rows, cols, rng);
    for (std::size_t i = 0; i < m.size(); i += 3) m.data()[i] = (i % 2 == 0) ? 0.0f : -0.0f;
    return m;
  }
  static bool same_bits(const DenseMatrix& a, const DenseMatrix& b) {
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
  }
};

TEST_P(GemmSweep, XwRowsGemmAndLinearAreBitwisePerRowXw) {
  const auto [isa, m, k, n] = GetParam();
  Rng rng(m * 1000003 + k * 1009 + n);
  const DenseMatrix X = with_zeros(m, k, rng);
  const DenseMatrix W = random_matrix(k, n, rng);
  const DenseMatrix Y0 = random_matrix(m, n, rng);

  for (const bool accumulate : {false, true}) {
    DenseMatrix expect = Y0;
    for (std::size_t i = 0; i < m; ++i) rows::xw(X.row(i), W.cview(), expect.row(i), accumulate);
    DenseMatrix tiled = Y0;
    rows::xw_rows(X.cview(), W.cview(), tiled.view(), accumulate);
    EXPECT_TRUE(same_bits(tiled, expect)) << "xw_rows accumulate=" << accumulate;
    DenseMatrix full = Y0;
    detail::gemm(isa, X.cview(), W.cview(), full.view(), accumulate);
    EXPECT_TRUE(same_bits(full, expect)) << "gemm accumulate=" << accumulate;
  }

  Linear linear(k, n, rng);
  for (std::size_t j = 0; j < n; ++j) linear.bias().at(0, j) = rng.uniform(-1.0f, 1.0f);
  DenseMatrix expect(m, n), Y(m, n), Yb(m, n);
  for (std::size_t i = 0; i < m; ++i)
    rows::affine(X.row(i), linear.weight().cview(), linear.bias().data(), expect.row(i));
  detail::gemm_bias(isa, X.cview(), linear.weight().cview(), linear.bias().data(), Yb.view());
  EXPECT_TRUE(same_bits(Yb, expect)) << "gemm_bias";
  linear.forward(X.cview(), Y.view());
  EXPECT_TRUE(same_bits(Y, expect)) << "Linear::forward";
}

TEST_P(GemmSweep, GemmAtBIsBitwiseAscendingKWithZeroSkip) {
  // Here k is the reduction length: A is stored (k x m), B (k x n).
  const auto [isa, m, k, n] = GetParam();
  Rng rng(m * 7919 + k * 104729 + n);
  DenseMatrix A = with_zeros(k, m, rng);
  if (m > 1)  // an all-zero column: its C row keeps its initial bits
    for (std::size_t kk = 0; kk < k; ++kk) A.at(kk, 1) = (kk % 2 == 0) ? 0.0f : -0.0f;
  const DenseMatrix B = random_matrix(k, n, rng);
  DenseMatrix C0 = random_matrix(m, n, rng);
  for (std::size_t i = 0; i < C0.size(); i += 2) C0.data()[i] = -0.0f;

  for (const bool accumulate : {false, true}) {
    DenseMatrix expect(m, n);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        real_t acc = accumulate ? C0.at(i, j) : 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) {
          if (A.at(kk, i) == 0) continue;
          acc += A.at(kk, i) * B.at(kk, j);
        }
        expect.at(i, j) = acc;
      }
    DenseMatrix C = C0;
    detail::gemm_at_b(isa, A.cview(), B.cview(), C.view(), accumulate);
    EXPECT_TRUE(same_bits(C, expect)) << "gemm_at_b accumulate=" << accumulate;
  }
}

TEST_P(GemmSweep, ColumnSumsAreBitwiseAscendingRows) {
  const auto [isa, m, k, n] = GetParam();
  Rng rng(m * 31 + k * 7 + n);
  const DenseMatrix M = with_zeros(m * k, n, rng);
  const DenseMatrix out0 = random_matrix(1, n, rng);
  for (const bool accumulate : {false, true}) {
    DenseMatrix expect(1, n);
    for (std::size_t j = 0; j < n; ++j) {
      real_t acc = accumulate ? out0.at(0, j) : 0.0f;
      for (std::size_t i = 0; i < M.rows(); ++i) acc += M.at(i, j);
      expect.at(0, j) = acc;
    }
    DenseMatrix out = out0;
    detail::column_sums(isa, M.cview(), out.view(), accumulate);
    EXPECT_TRUE(same_bits(out, expect)) << "column_sums accumulate=" << accumulate;
  }
}

// A row's bits do not depend on where the row sits in the tiles: gemm_bias
// over m gathered rows of a taller X (every other row, from row 1) is
// memcmp-equal to those rows of the full product. The full product has
// 2m + 3 rows, so each gathered row moves to another tile position, and m
// and n leave remainders of both variants' 4 x 8 and 4 x 16 tiles. A
// clone-exact layer runs its Linear on its owned rows only and relies on
// this (core/fullbatch_sage.hpp).
TEST_P(GemmSweep, GemmBiasOfARowSubsetIsThoseRowsOfTheFullProduct) {
  const auto [isa, m, k, n] = GetParam();
  Rng rng(m * 7 + k * 1009 + n * 31);
  const std::size_t tall = 2 * m + 3;
  const DenseMatrix X = with_zeros(tall, k, rng);
  const DenseMatrix W = random_matrix(k, n, rng);
  const DenseMatrix bias = random_matrix(1, n, rng);
  DenseMatrix Xs(m, k), full(tall, n), subset(m, n), expect(m, n);
  for (std::size_t i = 0; i < m; ++i)
    std::memcpy(Xs.row(i), X.row(2 * i + 1), k * sizeof(real_t));
  detail::gemm_bias(isa, X.cview(), W.cview(), bias.data(), full.view());
  detail::gemm_bias(isa, Xs.cview(), W.cview(), bias.data(), subset.view());
  for (std::size_t i = 0; i < m; ++i)
    std::memcpy(expect.row(i), full.row(2 * i + 1), n * sizeof(real_t));
  EXPECT_TRUE(same_bits(subset, expect));
}

std::string gemm_case_name(const ::testing::TestParamInfo<GemmCase>& info) {
  const auto& [isa, m, k, n] = info.param;
  return std::string(kernels::to_string(isa)) + "_m" + std::to_string(m) + "_k" +
         std::to_string(k) + "_n" + std::to_string(n);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSweep,
                         ::testing::Combine(::testing::Values(Isa::kBaseline, Isa::kAvx2),
                                            ::testing::Values<std::size_t>(1, 3, 4, 5, 67),
                                            ::testing::Values<std::size_t>(1, 7, 128, 257),
                                            ::testing::Values<std::size_t>(1, 5, 16, 19, 24, 32,
                                                                           40, 47)),
                         gemm_case_name);

TEST(Init, XavierWithinBound) {
  Rng rng(4);
  DenseMatrix W(64, 32);
  xavier_uniform(W.view(), 64, 32, rng);
  const real_t bound = std::sqrt(6.0f / (64 + 32));
  for (std::size_t i = 0; i < W.size(); ++i) {
    EXPECT_GE(W.data()[i], -bound);
    EXPECT_LE(W.data()[i], bound);
  }
}

// Central-difference gradient check of Linear through a scalar objective
// J = sum(Y * G) for a fixed G, so dJ/dY = G.
TEST(Linear, GradientsMatchFiniteDifference) {
  Rng rng(5);
  const std::size_t n = 6, in = 4, out = 3;
  Linear lin(in, out, rng);
  const DenseMatrix X = random_matrix(n, in, rng);
  const DenseMatrix G = random_matrix(n, out, rng);

  auto objective = [&]() {
    DenseMatrix Y(n, out);
    lin.forward(X.cview(), Y.view());
    double J = 0;
    for (std::size_t i = 0; i < Y.size(); ++i) J += static_cast<double>(Y.data()[i]) * G.data()[i];
    return J;
  };

  lin.zero_grad();
  DenseMatrix Y(n, out), dX(n, in);
  lin.forward(X.cview(), Y.view());
  lin.backward(X.cview(), G.cview(), dX.view());

  const real_t eps = 1e-2f;
  // Weight gradient spot checks.
  for (const auto& [r, c] : std::vector<std::pair<std::size_t, std::size_t>>{{0, 0}, {2, 1}, {3, 2}}) {
    real_t& w = lin.weight().at(r, c);
    const real_t save = w;
    w = save + eps;
    const double jp = objective();
    w = save - eps;
    const double jm = objective();
    w = save;
    EXPECT_NEAR(lin.weight_grad().at(r, c), (jp - jm) / (2 * eps), 2e-2)
        << "dW[" << r << "][" << c << "]";
  }
  // Bias gradient.
  for (std::size_t c = 0; c < out; ++c) {
    real_t& b = lin.bias().at(0, c);
    const real_t save = b;
    b = save + eps;
    const double jp = objective();
    b = save - eps;
    const double jm = objective();
    b = save;
    EXPECT_NEAR(lin.bias_grad().at(0, c), (jp - jm) / (2 * eps), 2e-2);
  }
}

TEST(Linear, InputGradient) {
  Rng rng(6);
  const std::size_t n = 5, in = 3, out = 4;
  Linear lin(in, out, rng);
  DenseMatrix X = random_matrix(n, in, rng);
  const DenseMatrix G = random_matrix(n, out, rng);
  DenseMatrix Y(n, out), dX(n, in);
  lin.forward(X.cview(), Y.view());
  lin.zero_grad();
  lin.backward(X.cview(), G.cview(), dX.view());

  const real_t eps = 1e-2f;
  real_t& x = X.at(1, 2);
  const real_t save = x;
  auto objective = [&]() {
    DenseMatrix Y2(n, out);
    lin.forward(X.cview(), Y2.view());
    double J = 0;
    for (std::size_t i = 0; i < Y2.size(); ++i)
      J += static_cast<double>(Y2.data()[i]) * G.data()[i];
    return J;
  };
  x = save + eps;
  const double jp = objective();
  x = save - eps;
  const double jm = objective();
  x = save;
  EXPECT_NEAR(dX.at(1, 2), (jp - jm) / (2 * eps), 2e-2);
}

TEST(Relu, ForwardBackward) {
  DenseMatrix X(1, 4);
  X.at(0, 0) = -1;
  X.at(0, 1) = 2;
  X.at(0, 2) = 0;
  X.at(0, 3) = 5;
  Relu relu;
  DenseMatrix Y(1, 4);
  relu.forward(X.cview(), Y.view());
  EXPECT_FLOAT_EQ(Y.at(0, 0), 0);
  EXPECT_FLOAT_EQ(Y.at(0, 1), 2);
  EXPECT_FLOAT_EQ(Y.at(0, 3), 5);

  DenseMatrix dY(1, 4, 1.0f), dX(1, 4);
  relu.backward(dY.cview(), dX.view());
  EXPECT_FLOAT_EQ(dX.at(0, 0), 0);
  EXPECT_FLOAT_EQ(dX.at(0, 1), 1);
  EXPECT_FLOAT_EQ(dX.at(0, 2), 0);  // x == 0 gives zero gradient
}

// ReLU′ is applied branch-free; its bits must be the select's, dX = mask ?
// dY : +0.0, for every dY bit pattern (±0, ±inf, NaN), for all-zero and
// all-one masks, and at a width that leaves a remainder of every SIMD
// width. Checked on the every-row path, on a row subset of a full-height
// forward and on a forward over just the subset's rows.
TEST(Relu, BackwardIsBitwiseTheMaskSelect) {
  const std::size_t n = 23, d = 13;
  const std::vector<vid_t> subset{0, 2, 3, 9, 10, 11, 17, 22};
  const real_t inf = std::numeric_limits<real_t>::infinity();
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const std::vector<real_t> specials{0.0f, -0.0f, inf, -inf, nan, -nan, 1e-45f, -1e-45f};
  Rng rng(41);
  DenseMatrix dY = random_matrix(n, d, rng);
  for (std::size_t i = 0; i < dY.size(); i += 3) dY.data()[i] = specials[(i / 3) % specials.size()];
  const auto same_bits = [](const DenseMatrix& a, const DenseMatrix& b) {
    return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
  };
  enum class Mask { kMixed, kAllZero, kAllOne };
  for (const Mask kind : {Mask::kMixed, Mask::kAllZero, Mask::kAllOne}) {
    DenseMatrix X = random_matrix(n, d, rng);
    for (std::size_t i = 0; i < X.size(); ++i) {
      real_t& x = X.data()[i];
      if (kind == Mask::kAllZero) x = i % 5 == 0 ? 0.0f : -std::fabs(x);
      if (kind == Mask::kAllOne) x = std::fabs(x) + 0.5f;
      if (kind == Mask::kMixed && i % 7 == 0) x = 0.0f;
    }
    // The select, written on the bits: dY's where x > 0, +0.0 elsewhere.
    DenseMatrix expect(n, d);
    for (std::size_t i = 0; i < X.size(); ++i)
      if (X.data()[i] > 0) std::memcpy(&expect.data()[i], &dY.data()[i], sizeof(real_t));
    DenseMatrix expect_subset(subset.size(), d), X_subset(subset.size(), d);
    for (std::size_t i = 0; i < subset.size(); ++i) {
      const auto r = static_cast<std::size_t>(subset[i]);
      std::memcpy(expect_subset.row(i), expect.row(r), d * sizeof(real_t));
      std::memcpy(X_subset.row(i), X.row(r), d * sizeof(real_t));
    }
    const int k = static_cast<int>(kind);

    Relu relu;
    DenseMatrix Y(n, d), dX(n, d, 7.0f), dX_rows(n, d, 7.0f), dX_subset(subset.size(), d);
    relu.forward(X.cview(), Y.view());
    relu.backward(dY.cview(), dX.view());
    EXPECT_TRUE(same_bits(dX, expect)) << "every row, mask " << k;
    std::vector<vid_t> every(n);
    std::iota(every.begin(), every.end(), vid_t{0});
    relu.backward_rows(every, dY.cview(), dX_rows.view());
    EXPECT_TRUE(same_bits(dX_rows, expect)) << "every listed row, mask " << k;
    relu.backward_rows(subset, dY.cview(), dX_subset.view());
    EXPECT_TRUE(same_bits(dX_subset, expect_subset)) << "row subset, mask " << k;

    Relu compact;
    DenseMatrix Y_subset(subset.size(), d), dX_compact(subset.size(), d);
    compact.forward(X_subset.cview(), Y_subset.view());
    compact.backward_rows(subset, dY.cview(), dX_compact.view());
    EXPECT_TRUE(same_bits(dX_compact, expect_subset)) << "forward on the subset, mask " << k;
  }
}

TEST(Loss, UniformLogitsGiveLogC) {
  DenseMatrix logits(4, 8, 0.0f);
  std::vector<int> labels{0, 1, 2, 3};
  std::vector<std::uint8_t> mask{1, 1, 1, 1};
  SoftmaxCrossEntropy loss;
  EXPECT_NEAR(loss.forward(logits.cview(), labels, mask), std::log(8.0), 1e-5);
}

TEST(Loss, MaskExcludesRows) {
  DenseMatrix logits(2, 3, 0.0f);
  logits.at(0, 0) = 100.0f;  // confident & correct
  std::vector<int> labels{0, 2};
  std::vector<std::uint8_t> mask{1, 0};
  SoftmaxCrossEntropy loss;
  EXPECT_NEAR(loss.forward(logits.cview(), labels, mask), 0.0, 1e-5);
  DenseMatrix d(2, 3);
  loss.backward(d.view());
  for (std::size_t j = 0; j < 3; ++j) EXPECT_FLOAT_EQ(d.at(1, j), 0.0f);
}

TEST(Loss, GradientMatchesFiniteDifference) {
  Rng rng(8);
  DenseMatrix logits = random_matrix(3, 5, rng);
  std::vector<int> labels{1, 4, 0};
  std::vector<std::uint8_t> mask{1, 1, 0};
  SoftmaxCrossEntropy loss;
  loss.forward(logits.cview(), labels, mask);
  DenseMatrix d(3, 5);
  loss.backward(d.view());

  const real_t eps = 1e-2f;
  for (const auto& [r, c] : std::vector<std::pair<std::size_t, std::size_t>>{{0, 1}, {1, 2}, {0, 4}}) {
    const real_t save = logits.at(r, c);
    logits.at(r, c) = save + eps;
    const double jp = loss.forward(logits.cview(), labels, mask);
    logits.at(r, c) = save - eps;
    const double jm = loss.forward(logits.cview(), labels, mask);
    logits.at(r, c) = save;
    loss.forward(logits.cview(), labels, mask);  // restore cache
    EXPECT_NEAR(d.at(r, c), (jp - jm) / (2 * eps), 1e-3);
  }
}

TEST(Loss, GlobalNormalizationDividesByGivenCount) {
  DenseMatrix logits(2, 4, 0.0f);
  std::vector<int> labels{0, 1};
  std::vector<std::uint8_t> mask{1, 1};
  SoftmaxCrossEntropy loss;
  const double local = loss.forward(logits.cview(), labels, mask);
  const double global = loss.forward(logits.cview(), labels, mask, /*normalization=*/8);
  EXPECT_NEAR(global, local * 2.0 / 8.0, 1e-9);
}

TEST(Sgd, StepMovesAgainstGradient) {
  std::vector<real_t> w{1.0f}, g{2.0f};
  ParamRef p{w.data(), g.data(), 1};
  Sgd sgd(0.1);
  sgd.step(std::span<ParamRef>(&p, 1));
  EXPECT_FLOAT_EQ(w[0], 1.0f - 0.1f * 2.0f);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  std::vector<real_t> w{1.0f}, g{0.0f};
  ParamRef p{w.data(), g.data(), 1};
  Sgd sgd(0.1, 0.0, 0.5);
  sgd.step(std::span<ParamRef>(&p, 1));
  EXPECT_FLOAT_EQ(w[0], 1.0f - 0.1f * 0.5f);
}

TEST(Sgd, MomentumAccumulates) {
  std::vector<real_t> w{0.0f}, g{1.0f};
  ParamRef p{w.data(), g.data(), 1};
  Sgd sgd(1.0, 0.9);
  sgd.step(std::span<ParamRef>(&p, 1));  // v=1, w=-1
  sgd.step(std::span<ParamRef>(&p, 1));  // v=1.9, w=-2.9
  EXPECT_NEAR(w[0], -2.9f, 1e-5);
}

TEST(Metrics, CountsCorrectPredictions) {
  DenseMatrix logits(3, 2, 0.0f);
  logits.at(0, 1) = 1.0f;  // pred 1
  logits.at(1, 0) = 1.0f;  // pred 0
  logits.at(2, 1) = 1.0f;  // pred 1, masked out
  std::vector<int> labels{1, 1, 0};
  std::vector<std::uint8_t> mask{1, 1, 0};
  const AccuracyCount c = masked_accuracy(logits.cview(), labels, mask);
  EXPECT_EQ(c.total, 2);
  EXPECT_EQ(c.correct, 1);
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.5);
}

// The row list of a backward over every one of n rows.
std::vector<vid_t> all_rows(std::size_t n) {
  std::vector<vid_t> rows(n);
  std::iota(rows.begin(), rows.end(), vid_t{0});
  return rows;
}

// Full GraphSAGE layer gradient check: J = sum(Y * G) through combine and
// forward with a hand-built aggregate.
TEST(GraphSageLayer, EndToEndGradientCheck) {
  Rng rng(9);
  const std::size_t n = 4, in = 3, out = 2;
  GraphSageLayer layer(in, out, /*apply_relu=*/true, rng);
  DenseMatrix H = random_matrix(n, in, rng);
  DenseMatrix agg = random_matrix(n, in, rng);
  DenseMatrix inv_norm(n, 1);
  for (std::size_t v = 0; v < n; ++v) inv_norm.at(v, 0) = 1.0f / static_cast<real_t>(v + 2);
  const DenseMatrix G = random_matrix(n, out, rng);

  DenseMatrix combined(n, in);
  auto objective = [&]() {
    DenseMatrix Y(n, out);
    GraphSageLayer::combine(H.cview(), agg.cview(), inv_norm.cview(), combined.view());
    layer.forward(combined.cview(), Y.view());
    double J = 0;
    for (std::size_t i = 0; i < Y.size(); ++i) J += static_cast<double>(Y.data()[i]) * G.data()[i];
    return J;
  };

  DenseMatrix dscaled(n, in);
  objective();
  layer.zero_grad();
  layer.backward(all_rows(n), combined.cview(), inv_norm.cview(), G.cview(), dscaled.view());

  // dJ/d agg[v][j] == dscaled[v][j] (the aggregate path is scaled identity).
  const real_t eps = 1e-2f;
  for (const auto& [r, c] : std::vector<std::pair<std::size_t, std::size_t>>{{0, 0}, {3, 2}, {1, 1}}) {
    const real_t save = agg.at(r, c);
    agg.at(r, c) = save + eps;
    const double jp = objective();
    agg.at(r, c) = save - eps;
    const double jm = objective();
    agg.at(r, c) = save;
    EXPECT_NEAR(dscaled.at(r, c), (jp - jm) / (2 * eps), 2e-2);
  }

  // Weight gradient through the combined path.
  objective();  // refresh caches at the unperturbed point
  layer.zero_grad();
  layer.backward(all_rows(n), combined.cview(), inv_norm.cview(), G.cview(), dscaled.view());
  real_t& w = layer.linear().weight().at(1, 1);
  const real_t save = w;
  w = save + eps;
  const double jp = objective();
  w = save - eps;
  const double jm = objective();
  w = save;
  EXPECT_NEAR(layer.linear().weight_grad().at(1, 1), (jp - jm) / (2 * eps), 2e-2);
}

// The input layer passes an empty dscaled: the weight and bias gradients
// must be bitwise those of the call that also writes the input gradient.
TEST(GraphSageLayer, EmptyDscaledGivesTheSameParameterGradients) {
  const std::size_t n = 37, in = 19, out = 9;
  Rng init_a(21), init_b(21), rng(22);
  GraphSageLayer with_buffer(in, out, /*apply_relu=*/true, init_a);
  GraphSageLayer without(in, out, /*apply_relu=*/true, init_b);
  const DenseMatrix H = random_matrix(n, in, rng);
  const DenseMatrix agg = random_matrix(n, in, rng);
  DenseMatrix inv_norm(n, 1);
  for (std::size_t v = 0; v < n; ++v) inv_norm.at(v, 0) = 1.0f / static_cast<real_t>(v % 5 + 1);
  const DenseMatrix dY = random_matrix(n, out, rng);

  DenseMatrix combined(n, in), Y(n, out), dscaled(n, in);
  GraphSageLayer::combine(H.cview(), agg.cview(), inv_norm.cview(), combined.view());
  for (GraphSageLayer* layer : {&with_buffer, &without}) {
    layer->forward(combined.cview(), Y.view());
    layer->zero_grad();
  }
  with_buffer.backward(all_rows(n), combined.cview(), inv_norm.cview(), dY.cview(),
                       dscaled.view());
  without.backward(all_rows(n), combined.cview(), inv_norm.cview(), dY.cview(), {});

  const auto bits_equal = [](const DenseMatrix& a, const DenseMatrix& b) {
    return std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
  };
  EXPECT_TRUE(bits_equal(with_buffer.linear().weight_grad(), without.linear().weight_grad()));
  EXPECT_TRUE(bits_equal(with_buffer.linear().bias_grad(), without.linear().bias_grad()));
}

TEST(GraphSageLayer, BackwardRowsIsTheBackwardOfAForwardOnJustThoseRows) {
  // A full-height forward followed by a backward over a row subset gives
  // bitwise the gradients of a forward and backward over all of the
  // subset's compact rows, and writes no other row of dscaled. So does a
  // forward over just the subset's rows followed by the same backward over
  // the full-height dY (a clone-exact layer's owned rows): it reads its
  // pre-activation by position.
  const std::size_t n = 41, in = 19, out = 9;
  const std::vector<vid_t> rows{0, 3, 4, 17, 29, 40};
  for (const bool relu : {true, false}) {
    Rng init_a(31), init_b(31), init_c(31), rng(32);
    GraphSageLayer full(in, out, relu, init_a);
    GraphSageLayer compact(in, out, relu, init_b);
    GraphSageLayer owned(in, out, relu, init_c);
    const DenseMatrix combined = random_matrix(n, in, rng);
    const DenseMatrix dY = random_matrix(n, out, rng);
    DenseMatrix inv_norm(n, 1);
    for (std::size_t v = 0; v < n; ++v) inv_norm.at(v, 0) = 1.0f / static_cast<real_t>(v % 5 + 1);

    DenseMatrix x(rows.size(), in), x_dY(rows.size(), out), x_inv(rows.size(), 1);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto r = static_cast<std::size_t>(rows[i]);
      std::memcpy(x.row(i), combined.row(r), in * sizeof(real_t));
      std::memcpy(x_dY.row(i), dY.row(r), out * sizeof(real_t));
      x_inv.at(i, 0) = inv_norm.at(r, 0);
    }

    DenseMatrix Y(n, out), x_Y(rows.size(), out), owned_Y(rows.size(), out);
    full.forward(combined.cview(), Y.view());
    compact.forward(x.cview(), x_Y.view());
    owned.forward(x.cview(), owned_Y.view());
    EXPECT_EQ(full.forward_rows(), n);
    EXPECT_EQ(owned.forward_rows(), rows.size());
    full.zero_grad();
    compact.zero_grad();
    owned.zero_grad();
    DenseMatrix dscaled(n, in, 7.0f), x_dscaled(rows.size(), in), owned_dscaled(n, in, 7.0f);
    full.backward(rows, x.cview(), inv_norm.cview(), dY.cview(), dscaled.view());
    compact.backward(all_rows(rows.size()), x.cview(), x_inv.cview(), x_dY.cview(),
                     x_dscaled.view());
    owned.backward(rows, x.cview(), inv_norm.cview(), dY.cview(), owned_dscaled.view());

    const auto bits_equal = [](const DenseMatrix& a, const DenseMatrix& b) {
      return std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
    };
    EXPECT_TRUE(bits_equal(full.linear().weight_grad(), compact.linear().weight_grad())) << relu;
    EXPECT_TRUE(bits_equal(full.linear().bias_grad(), compact.linear().bias_grad())) << relu;
    EXPECT_TRUE(bits_equal(owned.linear().weight_grad(), compact.linear().weight_grad())) << relu;
    EXPECT_TRUE(bits_equal(owned.linear().bias_grad(), compact.linear().bias_grad())) << relu;
    EXPECT_TRUE(bits_equal(owned_dscaled, dscaled)) << relu;
    std::size_t next = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const bool listed = next < rows.size() && static_cast<std::size_t>(rows[next]) == v;
      for (std::size_t j = 0; j < in; ++j) {
        if (listed) {
          EXPECT_EQ(dscaled.at(v, j), x_dscaled.at(next, j)) << "row " << v;
        } else {
          EXPECT_EQ(dscaled.at(v, j), 7.0f) << "row " << v << " is not listed";
        }
      }
      if (listed) ++next;
    }
  }
}

}  // namespace
}  // namespace distgnn
