#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <utility>

#include "core/rgcn_trainer.hpp"
#include "graph/datasets.hpp"
#include "nn/rgcn_layer.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

DenseMatrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  DenseMatrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1.0f, 1.0f);
  return m;
}

TEST(SplitByRelation, PartitionsEdgesInEdgeOrder) {
  EdgeList el;
  el.num_vertices = 4;
  el.add(0, 1);
  el.add(1, 2);
  el.add(2, 3);
  el.add(3, 0);
  const std::vector<EdgeList> rel = split_by_relation(el, std::vector<int>{0, 1, 0, 1}, 2);
  ASSERT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel[0].num_vertices, 4);
  EXPECT_EQ(rel[0].edges, (std::vector<Edge>{{0, 1}, {2, 3}}));
  EXPECT_EQ(rel[1].edges, (std::vector<Edge>{{1, 2}, {3, 0}}));
  const CsrMatrix in0 = CsrMatrix::from_coo(rel[0]);
  const CsrMatrix in1 = CsrMatrix::from_coo(rel[1]);
  EXPECT_EQ(in0.num_entries() + in1.num_entries(), 4);
  EXPECT_EQ(in0.degree(1), 1);  // edge 0->1 is relation 0
  EXPECT_EQ(in1.degree(1), 0);
  EXPECT_EQ(in1.degree(2), 1);  // edge 1->2 is relation 1
}

TEST(SplitByRelation, ValidatesInputs) {
  EdgeList el;
  el.num_vertices = 2;
  el.add(0, 1);
  EXPECT_THROW(split_by_relation(el, std::vector<int>{0, 1}, 2), std::invalid_argument);
  EXPECT_THROW(split_by_relation(el, std::vector<int>{5}, 2), std::out_of_range);
  EXPECT_THROW(split_by_relation(el, std::vector<int>{-1}, 2), std::out_of_range);
}

TEST(SplitByRelation, OutCsrIsTranspose) {
  EdgeList el;
  el.num_vertices = 3;
  el.add(0, 1);
  el.add(0, 2);
  const std::vector<EdgeList> rel = split_by_relation(el, std::vector<int>{0, 0}, 1);
  EXPECT_EQ(CsrMatrix::transpose_from_coo(rel[0]).degree(0), 2);
  EXPECT_EQ(CsrMatrix::from_coo(rel[0]).degree(0), 0);
}

TEST(HeteroSbm, RelationsCorrelateWithCommunities) {
  HeteroSbmParams p;
  p.num_vertices = 1024;
  p.num_classes = 4;
  p.num_edge_types = 4;
  p.avg_degree = 12;
  const Dataset ds = make_hetero_dataset(p);
  EXPECT_EQ(ds.num_edge_types, 4);
  ASSERT_EQ(ds.edge_types.size(), static_cast<std::size_t>(ds.num_edges()));
  // Intra-community edges were biased to relations {0,1}.
  eid_t intra_low = 0, intra = 0;
  const auto& edges = ds.graph.coo().edges;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (ds.labels[static_cast<std::size_t>(edges[i].src)] ==
        ds.labels[static_cast<std::size_t>(edges[i].dst)]) {
      ++intra;
      if (ds.edge_types[i] < 2) ++intra_low;
    }
  }
  EXPECT_GT(static_cast<double>(intra_low) / static_cast<double>(intra), 0.95);
}

// One relation takes every edge; fewer than one is rejected.
TEST(HeteroSbm, OneRelationTrains) {
  HeteroSbmParams p;
  p.num_vertices = 256;
  p.num_classes = 4;
  p.num_edge_types = 1;
  const Dataset ds = make_hetero_dataset(p);
  EXPECT_EQ(ds.num_edge_types, 1);
  ASSERT_EQ(ds.edge_types.size(), static_cast<std::size_t>(ds.num_edges()));
  EXPECT_TRUE(std::all_of(ds.edge_types.begin(), ds.edge_types.end(),
                          [](int t) { return t == 0; }));

  TrainConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden_dim = 8;
  RgcnTrainer trainer(ds, cfg);
  EXPECT_EQ(trainer.num_relations(), 1);
  for (int e = 0; e < 2; ++e) EXPECT_TRUE(std::isfinite(trainer.train_epoch().loss)) << e;

  p.num_edge_types = 0;
  EXPECT_THROW(make_hetero_dataset(p), std::invalid_argument);
}

TEST(RgcnTrainer, RejectsMissingOrMisalignedEdgeTypes) {
  HeteroSbmParams p;
  p.num_vertices = 128;
  p.num_classes = 2;
  p.num_edge_types = 2;
  const Dataset ds = make_hetero_dataset(p);
  TrainConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden_dim = 4;

  Dataset untyped = ds;
  untyped.edge_types.clear();
  untyped.num_edge_types = 0;
  EXPECT_THROW(RgcnTrainer(untyped, cfg), std::invalid_argument);

  Dataset short_types = ds;
  short_types.edge_types.pop_back();
  EXPECT_THROW(RgcnTrainer(short_types, cfg), std::invalid_argument);

  Dataset out_of_range = ds;
  out_of_range.edge_types.front() = ds.num_edge_types;
  EXPECT_THROW(RgcnTrainer(out_of_range, cfg), std::out_of_range);
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
  HeteroSbmParams p;
  p.num_vertices = 1024;
  p.num_classes = 4;
  p.num_edge_types = 4;
  p.avg_degree = 12;
  p.feature_noise = 0.8f;
  const Dataset ds = make_hetero_dataset(p);

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
  HeteroSbmParams p;
  p.num_vertices = 512;
  p.num_classes = 4;
  p.num_edge_types = 3;
  p.seed = 77;
  const Dataset ds = make_hetero_dataset(p);

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

// The trainer aggregates layer 0's constant input once per relation. A
// reference loop built from the public kernels and RgcnLayer, which
// re-aggregates layer 0 every epoch, must reach bitwise the same parameters;
// the losses pass through an OpenMP reduction and match to 12 significant
// digits.
class RgcnInputLayer : public ::testing::TestWithParam<ApMode> {};

TEST_P(RgcnInputLayer, MatchesPerEpochReaggregationBitwise) {
  HeteroSbmParams p;
  p.num_vertices = 512;
  p.num_classes = 4;
  p.num_edge_types = 3;
  p.seed = 78;
  const Dataset ds = make_hetero_dataset(p);

  TrainConfig cfg;
  cfg.num_layers = 3;
  cfg.hidden_dim = 16;
  cfg.lr = 0.1;
  cfg.momentum = 0.9;
  cfg.num_blocks = 2;
  cfg.ap_mode = GetParam();
  constexpr int kEpochs = 4;

  RgcnTrainer trainer(ds, cfg);
  std::vector<double> losses;
  for (int e = 0; e < kEpochs; ++e) losses.push_back(trainer.train_epoch().loss);

  const int relations = p.num_edge_types;
  const auto n = static_cast<std::size_t>(ds.num_vertices());
  Rng init(cfg.seed);
  std::vector<RgcnLayer> layers;
  for (int l = 0; l < cfg.num_layers; ++l) {
    const bool last = l == cfg.num_layers - 1;
    layers.emplace_back(l == 0 ? static_cast<std::size_t>(ds.feature_dim()) : 16u,
                        last ? static_cast<std::size_t>(ds.num_classes) : 16u, relations,
                        /*apply_relu=*/!last, init);
  }
  std::vector<CsrMatrix> in_csr, out_csr;
  std::vector<BlockedCsr> blocked_in, blocked_out;
  std::vector<DenseMatrix> inv_norms;
  for (const EdgeList& typed : split_by_relation(ds.graph.coo(), ds.edge_types, relations)) {
    in_csr.push_back(CsrMatrix::from_coo(typed));
    out_csr.push_back(CsrMatrix::transpose_from_coo(typed));
    blocked_in.emplace_back(in_csr.back(), cfg.num_blocks);
    blocked_out.emplace_back(out_csr.back(), cfg.num_blocks);
    DenseMatrix inv(n, 1);
    for (std::size_t v = 0; v < n; ++v) {
      const eid_t deg = in_csr.back().degree(static_cast<vid_t>(v));
      inv.at(v, 0) = deg > 0 ? 1.0f / static_cast<real_t>(deg) : 0.0f;
    }
    inv_norms.push_back(std::move(inv));
  }
  ApConfig ap;
  ap.dynamic_schedule = false;
  const auto aggregate_over = [&](bool transpose, int r, ConstMatrixView X, DenseMatrix& out) {
    out.resize_discard(X.rows, X.cols, 0);
    const auto ri = static_cast<std::size_t>(r);
    if (cfg.ap_mode == ApMode::kOptimized) {
      aggregate_prepartitioned(transpose ? blocked_out[ri] : blocked_in[ri], X, {}, out.view(), ap);
    } else {
      aggregate_baseline(transpose ? out_csr[ri] : in_csr[ri], X, {}, out.view(), ap.binary,
                         ap.reduce);
    }
  };

  SoftmaxCrossEntropy loss;
  Sgd optimizer(cfg.lr, cfg.momentum, cfg.weight_decay);
  std::vector<DenseMatrix> aggs(static_cast<std::size_t>(relations));
  std::vector<DenseMatrix> dscaled_rel(static_cast<std::size_t>(relations));
  std::vector<DenseMatrix> acts(static_cast<std::size_t>(cfg.num_layers));
  DenseMatrix d_upper, dH, scratch;
  for (int e = 0; e < kEpochs; ++e) {
    const auto input = [&](int l) {
      return l == 0 ? ds.features.cview() : acts[static_cast<std::size_t>(l - 1)].cview();
    };
    for (int l = 0; l < cfg.num_layers; ++l) {
      for (int r = 0; r < relations; ++r)
        aggregate_over(/*transpose=*/false, r, input(l), aggs[static_cast<std::size_t>(r)]);
      RgcnLayer& layer = layers[static_cast<std::size_t>(l)];
      acts[static_cast<std::size_t>(l)].resize_discard(n, layer.out_dim());
      layer.forward_from_aggregates(input(l), aggs, inv_norms,
                                    acts[static_cast<std::size_t>(l)].view());
    }
    const double expected = loss.forward(acts.back().cview(), ds.labels, ds.train_mask);
    EXPECT_NEAR(losses[static_cast<std::size_t>(e)], expected, 1e-12 * expected) << "epoch " << e;

    std::vector<ParamRef> params;
    for (RgcnLayer& layer : layers) {
      layer.zero_grad();
      layer.collect_params(params);
    }
    d_upper.resize_discard(n, acts.back().cols());
    loss.backward(d_upper.view());
    for (int l = cfg.num_layers - 1; l >= 0; --l) {
      RgcnLayer& layer = layers[static_cast<std::size_t>(l)];
      dH.resize_discard(n, layer.in_dim());
      layer.backward(input(l), d_upper.cview(), dscaled_rel, l > 0 ? dH.view() : MatrixView{});
      if (l == 0) break;
      for (int r = 0; r < relations; ++r) {
        aggregate_over(/*transpose=*/true, r, dscaled_rel[static_cast<std::size_t>(r)].cview(),
                       scratch);
        for (std::size_t i = 0; i < dH.size(); ++i) dH.data()[i] += scratch.data()[i];
      }
      std::swap(d_upper, dH);
    }
    optimizer.step(params);
  }

  const std::vector<ParamRef> got = trainer.params();
  std::vector<ParamRef> want;
  for (RgcnLayer& layer : layers) layer.collect_params(want);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size, want[i].size);
    EXPECT_EQ(std::memcmp(got[i].value, want[i].value, want[i].size * sizeof(real_t)), 0)
        << "parameter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(BothApModes, RgcnInputLayer,
                         ::testing::Values(ApMode::kOptimized, ApMode::kBaseline),
                         [](const auto& info) {
                           return info.param == ApMode::kOptimized ? "Optimized" : "Baseline";
                         });

}  // namespace
}  // namespace distgnn
