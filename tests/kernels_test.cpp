#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>

#include "graph/generators.hpp"
#include "kernels/aggregate.hpp"
#include "kernels/microkernel.hpp"
#include "kernels/ops.hpp"
#include "kernels/traffic_replay.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

/// The value aggregate's callers seed fO with for each reduction.
real_t reduce_identity(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return 0;
    case ReduceOp::kMax: return -std::numeric_limits<real_t>::infinity();
    case ReduceOp::kMin: return std::numeric_limits<real_t>::infinity();
  }
  return 0;
}

std::string to_string(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return "add";
    case BinaryOp::kSub: return "sub";
    case BinaryOp::kMul: return "mul";
    case BinaryOp::kDiv: return "div";
    case BinaryOp::kCopyLhs: return "copylhs";
    case BinaryOp::kCopyRhs: return "copyrhs";
  }
  return "?";
}

std::string to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kMin: return "min";
  }
  return "?";
}

DenseMatrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng, real_t lo = 0.5f,
                          real_t hi = 2.0f) {
  // Strictly positive values so kDiv is well behaved.
  DenseMatrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(lo, hi);
  return m;
}

/// Dense O(V^2 d) reference aggregation straight from the AP definition.
DenseMatrix dense_reference(const EdgeList& el, const DenseMatrix& fV, const DenseMatrix& fE,
                            BinaryOp binary, ReduceOp reduce) {
  const auto n = static_cast<std::size_t>(el.num_vertices);
  const std::size_t d = uses_lhs(binary) ? fV.cols() : fE.cols();
  DenseMatrix out(n, d, reduce_identity(reduce));
  for (std::size_t e = 0; e < el.edges.size(); ++e) {
    const auto u = static_cast<std::size_t>(el.edges[e].src);
    const auto v = static_cast<std::size_t>(el.edges[e].dst);
    for (std::size_t j = 0; j < d; ++j) {
      real_t x = 0;
      switch (binary) {
        case BinaryOp::kAdd: x = fV.at(u, j) + fE.at(e, j); break;
        case BinaryOp::kSub: x = fV.at(u, j) - fE.at(e, j); break;
        case BinaryOp::kMul: x = fV.at(u, j) * fE.at(e, j); break;
        case BinaryOp::kDiv: x = fV.at(u, j) / fE.at(e, j); break;
        case BinaryOp::kCopyLhs: x = fV.at(u, j); break;
        case BinaryOp::kCopyRhs: x = fE.at(e, j); break;
      }
      real_t& z = out.at(v, j);
      switch (reduce) {
        case ReduceOp::kSum: z += x; break;
        case ReduceOp::kMax: z = std::max(z, x); break;
        case ReduceOp::kMin: z = std::min(z, x); break;
      }
    }
  }
  return out;
}

void expect_near(const DenseMatrix& a, const DenseMatrix& b, real_t tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Exact match covers the +/-inf identities of max/min over empty rows.
    if (a.data()[i] == b.data()[i]) continue;
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "flat index " << i;
  }
}

struct OpCase {
  BinaryOp binary;
  ReduceOp reduce;
};

class ApOperatorTest : public ::testing::TestWithParam<std::tuple<BinaryOp, ReduceOp>> {};

TEST_P(ApOperatorTest, BaselineMatchesDenseReference) {
  const auto [binary, reduce] = GetParam();
  Rng rng(13);
  const EdgeList el = generate_rmat({.num_vertices = 200, .num_edges = 1500, .seed = 17});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  const std::size_t d = 7;
  const DenseMatrix fV = random_matrix(200, d, rng);
  const DenseMatrix fE = random_matrix(el.edges.size(), d, rng);

  DenseMatrix out(200, d, reduce_identity(reduce));
  aggregate_baseline(csr, fV.cview(), fE.cview(), out.view(), binary, reduce);
  expect_near(out, dense_reference(el, fV, fE, binary, reduce), 1e-3f);
}

TEST_P(ApOperatorTest, OptimizedMatchesDenseReference) {
  const auto [binary, reduce] = GetParam();
  Rng rng(14);
  const EdgeList el = generate_rmat({.num_vertices = 200, .num_edges = 1500, .seed = 23});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  const std::size_t d = 9;
  const DenseMatrix fV = random_matrix(200, d, rng);
  const DenseMatrix fE = random_matrix(el.edges.size(), d, rng);

  ApConfig cfg;
  cfg.binary = binary;
  cfg.reduce = reduce;
  cfg.num_blocks = 4;
  DenseMatrix out(200, d, reduce_identity(reduce));
  aggregate(csr, fV.cview(), fE.cview(), out.view(), cfg);
  expect_near(out, dense_reference(el, fV, fE, binary, reduce), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    AllOperatorPairs, ApOperatorTest,
    ::testing::Combine(::testing::Values(BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                                         BinaryOp::kDiv, BinaryOp::kCopyLhs, BinaryOp::kCopyRhs),
                       ::testing::Values(ReduceOp::kSum, ReduceOp::kMax, ReduceOp::kMin)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_" + to_string(std::get<1>(info.param));
    });

class ApBlockingTest
    : public ::testing::TestWithParam<std::tuple<int /*nB*/, int /*d*/, bool /*dynamic*/,
                                                 bool /*microkernel*/>> {};

TEST_P(ApBlockingTest, AllConfigurationsAgreeWithBaseline) {
  const auto [num_blocks, d, dynamic, micro] = GetParam();
  Rng rng(num_blocks * 31 + d);
  const EdgeList el = generate_rmat({.num_vertices = 500, .num_edges = 6000, .seed = 29});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  const DenseMatrix fV = random_matrix(500, static_cast<std::size_t>(d), rng);

  DenseMatrix expected(500, static_cast<std::size_t>(d), 0);
  aggregate_baseline(csr, fV.cview(), {}, expected.view(), BinaryOp::kCopyLhs, ReduceOp::kSum);

  ApConfig cfg;
  cfg.num_blocks = num_blocks;
  cfg.dynamic_schedule = dynamic;
  cfg.use_microkernel = micro;
  DenseMatrix out(500, static_cast<std::size_t>(d), 0);
  aggregate(csr, fV.cview(), {}, out.view(), cfg);
  expect_near(out, expected, 1e-2f);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ApBlockingTest,
                         ::testing::Combine(::testing::Values(1, 2, 7, 16),
                                            ::testing::Values(1, 8, 33),
                                            ::testing::Bool(), ::testing::Bool()));

TEST(Aggregate, PrepartitionedReusableAcrossCalls) {
  Rng rng(5);
  const EdgeList el = generate_rmat({.num_vertices = 128, .num_edges = 1000, .seed = 3});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  const BlockedCsr blocks(csr, 4);
  const DenseMatrix fV = random_matrix(128, 16, rng);

  ApConfig cfg;
  DenseMatrix out1(128, 16, 0), out2(128, 16, 0);
  aggregate_prepartitioned(blocks, fV.cview(), {}, out1.view(), cfg);
  aggregate_prepartitioned(blocks, fV.cview(), {}, out2.view(), cfg);
  expect_near(out1, out2, 0.0f);
}

TEST(Aggregate, MaxOverEmptyRowKeepsIdentity) {
  EdgeList el;
  el.num_vertices = 3;
  el.add(0, 1);  // vertex 2 has no in-edges
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  DenseMatrix fV(3, 2, 1.0f);
  DenseMatrix out(3, 2, reduce_identity(ReduceOp::kMax));
  ApConfig cfg;
  cfg.reduce = ReduceOp::kMax;
  aggregate(csr, fV.cview(), {}, out.view(), cfg);
  EXPECT_EQ(out.at(1, 0), 1.0f);
  EXPECT_EQ(out.at(2, 0), reduce_identity(ReduceOp::kMax));
}

TEST(Aggregate, ShapeValidation) {
  EdgeList el;
  el.num_vertices = 4;
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 3);
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  DenseMatrix fV(4, 3), fO_bad(3, 3), fO(4, 3);
  ApConfig cfg;
  EXPECT_THROW(aggregate(csr, fV.cview(), {}, fO_bad.view(), cfg), std::invalid_argument);
  cfg.binary = BinaryOp::kAdd;  // needs fE
  EXPECT_THROW(aggregate(csr, fV.cview(), {}, fO.view(), cfg), std::invalid_argument);
}

TEST(Microkernel, MatchesScalarReferenceOnAllPairs) {
  // Bit for bit, in every kernel variant (kernels/isa.hpp): each acc[j]
  // takes the same ⊗ and ⊕ as the scalar reference, in neighbour order, so
  // the vector width cannot change a bit for any of the 18 pairs.
  Rng rng(77);
  constexpr std::size_t degree = 5;
  const vid_t nbrs[degree] = {3, 1, 15, 7, 3};
  const eid_t eids[degree] = {0, 2, 7, 4, 1};
  for (const std::size_t d : {std::size_t{21}, std::size_t{128}}) {
    // Signed lhs values exercise max/min; the rhs stays positive for kDiv.
    const DenseMatrix fV = random_matrix(16, d, rng, -2.0f, 2.0f);
    const DenseMatrix fE = random_matrix(8, d, rng);
    for (const kernels::Isa isa : {kernels::Isa::kBaseline, kernels::Isa::kAvx2}) {
      if (!kernels::isa_supported(isa)) continue;
      for (const BinaryOp b : kAllBinaryOps) {
        for (const ReduceOp r : kAllReduceOps) {
          std::vector<real_t> acc_fast(d, reduce_identity(r)), acc_ref(d, reduce_identity(r));
          detail::lookup_row_kernel(isa, b, r)(nbrs, eids, degree, fV.data(), fE.data(), d,
                                               acc_fast.data());
          row_kernel_reference(b, r, nbrs, eids, degree, fV.data(), fE.data(), d,
                               acc_ref.data());
          EXPECT_EQ(std::memcmp(acc_fast.data(), acc_ref.data(), d * sizeof(real_t)), 0)
              << kernels::to_string(isa) << " " << to_string(b) << "/" << to_string(r)
              << " d=" << d;
        }
      }
    }
  }
  if (!kernels::isa_supported(kernels::Isa::kAvx2))
    GTEST_SKIP() << "the baseline table matched; this host does not run the avx2 variant";
}

TEST(Microkernel, ZeroDegreeLeavesAccumulatorUntouched) {
  std::vector<real_t> acc(4, 3.5f);
  lookup_row_kernel(BinaryOp::kCopyLhs, ReduceOp::kSum)(nullptr, nullptr, 0, nullptr, nullptr, 4,
                                                        acc.data());
  for (const real_t v : acc) EXPECT_EQ(v, 3.5f);
}

TEST(TrafficReplay, InfiniteCacheReachesIdealReuse) {
  const EdgeList el = generate_rmat({.num_vertices = 512, .num_edges = 8192, .seed = 41});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  const auto report = replay_aggregation_traffic(csr, 16, 1, /*cache_bytes=*/1u << 30);
  // Every touched fV vector misses once; reuse == accesses/misses == average
  // in-degree over touched sources.
  EXPECT_GT(report.fv_reuse, 10.0);
  EXPECT_EQ(report.fo.misses, report.fo.accesses);  // each row touched once with nB=1
}

TEST(TrafficReplay, TinyCacheDegradesReuse) {
  const EdgeList el = generate_rmat({.num_vertices = 2048, .num_edges = 32768, .seed = 43});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  const auto big = replay_aggregation_traffic(csr, 64, 1, 1u << 30);
  const auto tiny = replay_aggregation_traffic(csr, 64, 1, 1u << 12);
  EXPECT_GT(big.fv_reuse, tiny.fv_reuse);
  EXPECT_GT(tiny.bytes_read, big.bytes_read);
}

TEST(TrafficReplay, MoreBlocksMorePassesOverFo) {
  const EdgeList el = generate_rmat({.num_vertices = 1024, .num_edges = 16384, .seed = 47});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  const auto one = replay_aggregation_traffic(csr, 64, 1, 1u << 14);
  const auto many = replay_aggregation_traffic(csr, 64, 16, 1u << 14);
  EXPECT_GT(many.fo.accesses, one.fo.accesses);
}

TEST(AutoNumBlocks, GrowsWithProblemSize) {
  EXPECT_EQ(auto_num_blocks(1000, 16), 1);
  EXPECT_GT(auto_num_blocks(100'000'000, 256), 8);
  EXPECT_LE(auto_num_blocks(1'000'000'000, 1024), 64);
}

}  // namespace
}  // namespace distgnn
