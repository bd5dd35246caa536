#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "core/rgcn_trainer.hpp"
#include "graph/hetero.hpp"
#include "nn/rgcn_layer.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

DenseMatrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  DenseMatrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0f, 1.0f);
  return m;
}

TEST(HeteroGraph, PerRelationCsrPartitionsEdges) {
  EdgeList el;
  el.num_vertices = 4;
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 3);
  el.add(3, 0);
  HeteroGraph g(el, {0, 1, 0, 1}, 2);
  EXPECT_EQ(g.in_csr(0).num_entries() + g.in_csr(1).num_entries(), 4);
  EXPECT_EQ(g.in_degree(1, 0), 1);  // edge 0->1 is relation 0
  EXPECT_EQ(g.in_degree(1, 1), 0);
  EXPECT_EQ(g.in_degree(2, 1), 1);  // edge 1->2 is relation 1
}

TEST(HeteroGraph, ValidatesInputs) {
  EdgeList el;
  el.num_vertices = 2;
  el.add(0, 1);
  EXPECT_THROW(HeteroGraph(el, {0, 1}, 2), std::invalid_argument);  // size mismatch
  EXPECT_THROW(HeteroGraph(el, {5}, 2), std::out_of_range);         // bad type
}

TEST(HeteroGraph, OutCsrIsTranspose) {
  EdgeList el;
  el.num_vertices = 3;
  el.add(0, 1);
  el.add(0, 2);
  HeteroGraph g(el, {0, 0}, 1);
  EXPECT_EQ(g.out_csr(0).degree(0), 2);
  EXPECT_EQ(g.in_csr(0).degree(0), 0);
}

TEST(HeteroDataset, RelationsCorrelateWithCommunities) {
  HeteroDatasetParams p;
  p.num_vertices = 1024;
  p.num_classes = 4;
  p.num_edge_types = 4;
  p.avg_degree = 12;
  const HeteroDataset ds = make_hetero_dataset(p);
  EXPECT_EQ(ds.graph.num_edge_types(), 4);
  // Intra-community edges were biased to relations {0,1}.
  eid_t intra_low = 0, intra = 0;
  const auto& edges = ds.graph.edges().edges;
  const auto& types = ds.graph.edge_types();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (ds.labels[static_cast<std::size_t>(edges[i].src)] ==
        ds.labels[static_cast<std::size_t>(edges[i].dst)]) {
      ++intra;
      if (types[i] < 2) ++intra_low;
    }
  }
  EXPECT_GT(static_cast<double>(intra_low) / static_cast<double>(intra), 0.95);
}

TEST(RgcnLayer, GradientCheckThroughAllPaths) {
  Rng rng(3);
  const std::size_t n = 5, in = 3, out = 2;
  const int relations = 2;
  RgcnLayer layer(in, out, relations, /*apply_relu=*/true, rng);
  DenseMatrix H = random_matrix(n, in, rng);
  std::vector<DenseMatrix> aggs, inv_norms;
  for (int r = 0; r < relations; ++r) {
    aggs.push_back(random_matrix(n, in, rng));
    DenseMatrix inv(n, 1);
    for (std::size_t v = 0; v < n; ++v) inv.at(v, 0) = 1.0f / static_cast<real_t>(v + 1 + r);
    inv_norms.push_back(std::move(inv));
  }
  const DenseMatrix G = random_matrix(n, out, rng);

  auto objective = [&]() {
    DenseMatrix Y(n, out);
    layer.forward_from_aggregates(H.cview(), aggs, inv_norms, Y.view());
    double J = 0;
    for (std::size_t i = 0; i < Y.size(); ++i) J += static_cast<double>(Y.data()[i]) * G.data()[i];
    return J;
  };

  DenseMatrix Y(n, out), dH_self(n, in);
  std::vector<DenseMatrix> dscaled(static_cast<std::size_t>(relations));
  layer.forward_from_aggregates(H.cview(), aggs, inv_norms, Y.view());
  layer.zero_grad();
  layer.backward(H.cview(), G.cview(), dscaled, dH_self.view());

  const real_t eps = 1e-2f;
  // Gradient w.r.t. each relation's aggregate equals dscaled[r].
  for (int r = 0; r < relations; ++r) {
    real_t& a = aggs[static_cast<std::size_t>(r)].at(2, 1);
    const real_t save = a;
    a = save + eps;
    const double jp = objective();
    a = save - eps;
    const double jm = objective();
    a = save;
    EXPECT_NEAR(dscaled[static_cast<std::size_t>(r)].at(2, 1), (jp - jm) / (2 * eps), 2e-2)
        << "relation " << r;
  }
  // Gradient w.r.t. the self features (through W_self only; the aggregates
  // here are independent inputs, so no neighbour path applies).
  objective();
  layer.zero_grad();
  layer.backward(H.cview(), G.cview(), dscaled, dH_self.view());
  real_t& h = H.at(1, 0);
  const real_t save = h;
  h = save + eps;
  const double jp = objective();
  h = save - eps;
  const double jm = objective();
  h = save;
  EXPECT_NEAR(dH_self.at(1, 0), (jp - jm) / (2 * eps), 2e-2);
}

// The input layer passes an empty dH_self: every parameter gradient must be
// bitwise that of the call that also writes the input gradients.
TEST(RgcnLayer, EmptyDHSelfGivesTheSameParameterGradients) {
  Rng rng(7);
  const std::size_t n = 11, in = 6, out = 5;
  const int relations = 3;
  RgcnLayer layer(in, out, relations, /*apply_relu=*/true, rng);
  const DenseMatrix H = random_matrix(n, in, rng);
  std::vector<DenseMatrix> aggs, inv_norms;
  for (int r = 0; r < relations; ++r) {
    aggs.push_back(random_matrix(n, in, rng));
    inv_norms.emplace_back(n, 1, 1.0f / static_cast<real_t>(r + 2));
  }
  const DenseMatrix G = random_matrix(n, out, rng);
  DenseMatrix Y(n, out), dH_self(n, in);
  layer.forward_from_aggregates(H.cview(), aggs, inv_norms, Y.view());

  const auto grads = [&](MatrixView dH) {
    std::vector<DenseMatrix> dscaled(static_cast<std::size_t>(relations));
    layer.zero_grad();
    layer.backward(H.cview(), G.cview(), dscaled, dH);
    std::vector<ParamRef> params;
    layer.collect_params(params);
    std::vector<real_t> flat;
    for (const ParamRef& p : params) flat.insert(flat.end(), p.grad, p.grad + p.size);
    return flat;
  };
  const std::vector<real_t> with_buffer = grads(dH_self.view());
  const std::vector<real_t> without = grads({});
  ASSERT_EQ(with_buffer.size(), without.size());
  EXPECT_EQ(std::memcmp(with_buffer.data(), without.data(), without.size() * sizeof(real_t)), 0);
}

TEST(RgcnLayer, CollectsAllParams) {
  Rng rng(5);
  RgcnLayer layer(4, 3, 3, true, rng);
  std::vector<ParamRef> params;
  layer.collect_params(params);
  // W_self + bias + 3 relation weights.
  EXPECT_EQ(params.size(), 5u);
}

TEST(RgcnTrainer, LearnsTypedCommunities) {
  HeteroDatasetParams p;
  p.num_vertices = 1024;
  p.num_classes = 4;
  p.num_edge_types = 4;
  p.avg_degree = 12;
  p.feature_noise = 0.8f;
  const HeteroDataset ds = make_hetero_dataset(p);

  TrainConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden_dim = 32;
  cfg.lr = 0.1;
  RgcnTrainer trainer(ds, cfg);
  const double first = trainer.train_epoch().loss;
  for (int e = 0; e < 40; ++e) trainer.train_epoch();
  const double last = trainer.train_epoch().loss;
  EXPECT_LT(last, 0.5 * first);
  EXPECT_GT(trainer.evaluate(ds.test_mask), 0.7);
}

TEST(RgcnTrainer, BaselineAndOptimizedApAgree) {
  HeteroDatasetParams p;
  p.num_vertices = 512;
  p.num_classes = 4;
  p.num_edge_types = 3;
  p.seed = 77;
  const HeteroDataset ds = make_hetero_dataset(p);

  TrainConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden_dim = 16;
  cfg.ap_mode = ApMode::kOptimized;
  RgcnTrainer opt(ds, cfg);
  cfg.ap_mode = ApMode::kBaseline;
  RgcnTrainer base(ds, cfg);
  for (int e = 0; e < 4; ++e) {
    const double lo = opt.train_epoch().loss;
    const double lb = base.train_epoch().loss;
    EXPECT_NEAR(lo, lb, 1e-3 * std::max(1.0, std::abs(lb))) << "epoch " << e;
  }
}

}  // namespace
}  // namespace distgnn
