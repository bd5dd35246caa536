#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "gat_reference.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "kernels/aggregate.hpp"
#include "nn/layer_rows.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

DenseMatrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  DenseMatrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0f, 1.0f);
  return m;
}

/// The full-graph GAT layer through the production row functions: x·W and
/// both attention halves once per vertex, then rows::gat_attend per
/// destination. Returns α in in-CSR entry order, like gat_reference.
std::vector<real_t> gat_rows(const CsrMatrix& in_csr, ConstMatrixView H, const GatWeights& g,
                             MatrixView Y) {
  const std::size_t n = H.rows, d = g.weight.cols();
  DenseMatrix z(n, d);
  rows::xw_rows(H, g.weight.cview(), z.view());
  std::vector<real_t> src_term(n), alpha(static_cast<std::size_t>(in_csr.num_entries()));
  for (std::size_t v = 0; v < n; ++v) src_term[v] = rows::dot(z.row(v), g.attn_src.data(), d);
  for (std::size_t v = 0; v < n; ++v) {
    const real_t dst_term = rows::dot(z.row(v), g.attn_dst.data(), d);
    rows::gat_attend(in_csr.neighbors(static_cast<vid_t>(v)), src_term.data(), dst_term, g.slope,
                     z.cview(), alpha.data() + in_csr.row_ptr()[v], Y.row(v));
  }
  return alpha;
}

using GatForward = std::vector<real_t> (*)(const CsrMatrix&, ConstMatrixView, const GatWeights&,
                                           MatrixView);

struct GatImpl {
  std::string name;
  GatForward forward;
};

// Every property below must hold for the production row functions and for
// the scalar reference alike.
class GatProperty : public ::testing::TestWithParam<GatImpl> {};

TEST_P(GatProperty, AttentionIsAProbabilityDistributionPerVertex) {
  const Graph g(generate_rmat({.num_vertices = 128, .num_edges = 1024, .seed = 3}));
  Rng rng(5);
  const GatWeights w = GatWeights::random(8, 6, rng);
  const DenseMatrix H = random_matrix(128, 8, rng);
  DenseMatrix Y(128, 6);
  const CsrMatrix& in_csr = g.in_csr();
  const std::vector<real_t> alpha = GetParam().forward(in_csr, H.cview(), w, Y.view());

  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    const eid_t begin = in_csr.row_ptr()[static_cast<std::size_t>(v)];
    const eid_t end = in_csr.row_ptr()[static_cast<std::size_t>(v) + 1];
    if (begin == end) continue;
    real_t sum = 0;
    for (eid_t i = begin; i < end; ++i) {
      const real_t a = alpha[static_cast<std::size_t>(i)];
      EXPECT_GE(a, 0.0f);
      EXPECT_LE(a, 1.0f);
      sum += a;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f) << "vertex " << v;
  }
}

TEST_P(GatProperty, IsolatedVerticesOutputZero) {
  EdgeList el;
  el.num_vertices = 3;
  el.add(0, 1);  // vertex 2 isolated
  const Graph g(el);
  Rng rng(7);
  const GatWeights w = GatWeights::random(4, 4, rng);
  const DenseMatrix H = random_matrix(3, 4, rng);
  DenseMatrix Y(3, 4, 99.0f);
  GetParam().forward(g.in_csr(), H.cview(), w, Y.view());
  for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(Y.at(2, j), 0.0f);
}

TEST_P(GatProperty, SingleNeighborGetsFullAttention) {
  EdgeList el;
  el.num_vertices = 2;
  el.add(0, 1);
  const Graph g(el);
  Rng rng(9);
  const GatWeights w = GatWeights::random(4, 4, rng);
  const DenseMatrix H = random_matrix(2, 4, rng);
  DenseMatrix Y(2, 4);
  const std::vector<real_t> alpha = GetParam().forward(g.in_csr(), H.cview(), w, Y.view());
  ASSERT_EQ(alpha.size(), 1u);
  EXPECT_EQ(alpha[0], 1.0f);
}

TEST_P(GatProperty, MatchesApMulAggregationOnBroadcastAttention) {
  // Cross-check: materialize α as |E| x d edge features and push it through
  // the AP's (fV, fE, mul, sum) path — the outputs must agree. This is the
  // DGL message-passing formulation of GAT's weighted aggregation.
  const EdgeList el = generate_rmat({.num_vertices = 200, .num_edges = 1600, .seed = 11});
  const Graph g(el);
  Rng rng(13);
  const std::size_t d = 5;
  const GatWeights w = GatWeights::random(7, d, rng);
  const DenseMatrix H = random_matrix(200, 7, rng);
  DenseMatrix Y(200, d);
  const CsrMatrix& in_csr = g.in_csr();
  const std::vector<real_t> alpha = GetParam().forward(in_csr, H.cview(), w, Y.view());

  // z = H W, and α broadcast over the feature width in COO edge order.
  DenseMatrix z(200, d);
  for (std::size_t v = 0; v < 200; ++v)
    for (std::size_t j = 0; j < d; ++j) {
      real_t acc = 0;
      for (std::size_t k = 0; k < 7; ++k) acc += H.at(v, k) * w.weight.at(k, j);
      z.at(v, j) = acc;
    }
  DenseMatrix fE(el.edges.size(), d);
  for (vid_t v = 0; v < in_csr.num_rows(); ++v) {
    const auto eids = in_csr.edge_ids(v);
    const real_t* a = alpha.data() + in_csr.row_ptr()[static_cast<std::size_t>(v)];
    for (std::size_t i = 0; i < eids.size(); ++i)
      for (std::size_t j = 0; j < d; ++j) fE.at(static_cast<std::size_t>(eids[i]), j) = a[i];
  }

  DenseMatrix expected(200, d, 0);
  ApConfig cfg;
  cfg.binary = BinaryOp::kMul;
  cfg.reduce = ReduceOp::kSum;
  cfg.num_blocks = 4;
  aggregate(in_csr, z.cview(), fE.cview(), expected.view(), cfg);

  for (std::size_t i = 0; i < Y.size(); ++i)
    ASSERT_NEAR(Y.data()[i], expected.data()[i], 2e-4f) << "flat " << i;
}

INSTANTIATE_TEST_SUITE_P(Impls, GatProperty,
                         ::testing::Values(GatImpl{"RowsGatAttend", gat_rows},
                                           GatImpl{"ScalarReference", gat_reference}),
                         [](const auto& info) { return info.param.name; });

TEST(Gat, RowFunctionsMatchScalarReferenceBitwise) {
  // 16 output columns, so the projection and attention dot products are
  // wide enough that a reassociated sum would change bits.
  const Graph g(generate_rmat({.num_vertices = 300, .num_edges = 2400, .seed = 17}));
  Rng rng(19);
  const GatWeights w = GatWeights::random(12, 16, rng);
  const DenseMatrix H = random_matrix(300, 12, rng);
  DenseMatrix Y_rows(300, 16), Y_ref(300, 16);
  const std::vector<real_t> a_rows = gat_rows(g.in_csr(), H.cview(), w, Y_rows.view());
  const std::vector<real_t> a_ref = gat_reference(g.in_csr(), H.cview(), w, Y_ref.view());
  ASSERT_EQ(a_rows.size(), a_ref.size());
  EXPECT_EQ(std::memcmp(a_rows.data(), a_ref.data(), a_rows.size() * sizeof(real_t)), 0);
  EXPECT_EQ(std::memcmp(Y_rows.data(), Y_ref.data(), Y_rows.size() * sizeof(real_t)), 0);
}

}  // namespace
}  // namespace distgnn
