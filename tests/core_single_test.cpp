#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fullbatch_sage.hpp"
#include "core/memory_model.hpp"
#include "core/single_socket_trainer.hpp"
#include "core/work_model.hpp"
#include "graph/datasets.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

Dataset learnable(vid_t n = 1024, int classes = 4, float noise = 0.8f, std::uint64_t seed = 11) {
  LearnableSbmParams p;
  p.num_vertices = n;
  p.num_classes = classes;
  p.avg_degree = 12;
  p.feature_dim = 16;
  p.feature_noise = noise;
  p.seed = seed;
  return make_learnable_sbm(p);
}

TrainConfig small_config() {
  TrainConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden_dim = 32;
  cfg.lr = 0.2;
  cfg.epochs = 30;
  return cfg;
}

TEST(SingleSocket, LossDecreases) {
  const Dataset ds = learnable();
  SingleSocketTrainer trainer(ds, small_config());
  const double first = trainer.train_epoch().loss;
  double last = first;
  for (int e = 0; e < 25; ++e) last = trainer.train_epoch().loss;
  EXPECT_LT(last, 0.5 * first);
}

TEST(SingleSocket, LearnsSbmAboveChance) {
  const Dataset ds = learnable(1024, 4, 0.5f);
  SingleSocketTrainer trainer(ds, small_config());
  for (int e = 0; e < 40; ++e) trainer.train_epoch();
  EXPECT_GT(trainer.evaluate(ds.test_mask), 0.7);  // chance 0.25
}

TEST(SingleSocket, BaselineAndOptimizedApAgree) {
  // Same seed, same data: the loss trajectory must match closely; the AP
  // implementations only differ in summation order.
  const Dataset ds = learnable(512, 4, 0.8f, 21);
  TrainConfig cfg = small_config();
  cfg.epochs = 5;

  cfg.ap_mode = ApMode::kOptimized;
  SingleSocketTrainer opt(ds, cfg);
  cfg.ap_mode = ApMode::kBaseline;
  SingleSocketTrainer base(ds, cfg);
  for (int e = 0; e < 5; ++e) {
    const double lo = opt.train_epoch().loss;
    const double lb = base.train_epoch().loss;
    EXPECT_NEAR(lo, lb, 1e-3 * std::max(1.0, std::abs(lb))) << "epoch " << e;
  }
}

TEST(SingleSocket, DeterministicForSeed) {
  const Dataset ds = learnable(512, 4, 0.8f, 22);
  const TrainConfig cfg = small_config();
  SingleSocketTrainer a(ds, cfg), b(ds, cfg);
  for (int e = 0; e < 3; ++e) EXPECT_DOUBLE_EQ(a.train_epoch().loss, b.train_epoch().loss);
}

TEST(SingleSocket, PhaseTimesSumBelowTotal) {
  const Dataset ds = learnable(512);
  SingleSocketTrainer trainer(ds, small_config());
  const EpochStats stats = trainer.train_epoch();
  EXPECT_GT(stats.ap_seconds, 0.0);
  EXPECT_GT(stats.mlp_seconds, 0.0);
  EXPECT_LE(stats.ap_seconds + stats.mlp_seconds, stats.total_seconds * 1.05);
}

TEST(SingleSocket, ExplicitBlockCountHonored) {
  const Dataset ds = learnable(512);
  TrainConfig cfg = small_config();
  cfg.num_blocks = 7;
  SingleSocketTrainer trainer(ds, cfg);
  EXPECT_EQ(trainer.effective_num_blocks(), 7);
}

// The trainer aggregates and combines the constant input features once, and
// runs the output layer, its loss and its backward only on the rows the
// loss reads. A reference loop built from the public kernels and layers
// re-aggregates layer 0 every epoch and runs every layer on the unpruned
// full graph; it must reach bitwise the same parameters (memcmp, the
// exhaustive reference-tester idiom) for every AP mode, depth and mask.
// The losses pass through an OpenMP reduction, so they match to 12
// significant digits.
enum class MaskKind { kEmpty, kSingleRow, kAllRows, kRandomTenth };

std::vector<std::uint8_t> make_mask(MaskKind kind, std::size_t n) {
  std::vector<std::uint8_t> mask(n, kind == MaskKind::kAllRows ? 1 : 0);
  if (kind == MaskKind::kSingleRow) mask[n / 3] = 1;
  if (kind == MaskKind::kRandomTenth) {
    Rng rng(77);
    for (auto& m : mask) m = rng.next_u64() % 10 == 0 ? 1 : 0;
  }
  return mask;
}

const char* mask_name(MaskKind kind) {
  switch (kind) {
    case MaskKind::kEmpty: return "Empty";
    case MaskKind::kSingleRow: return "SingleRow";
    case MaskKind::kAllRows: return "AllRows";
    case MaskKind::kRandomTenth: return "RandomTenth";
  }
  return "?";
}

class SingleSocketReference
    : public ::testing::TestWithParam<std::tuple<ApMode, int, MaskKind>> {};

TEST_P(SingleSocketReference, MatchesUnprunedFullGraphBitwise) {
  const auto [ap_mode, num_layers, mask_kind] = GetParam();
  Dataset ds = learnable(512, 4, 0.8f, 23);
  ds.train_mask = make_mask(mask_kind, static_cast<std::size_t>(ds.num_vertices()));
  TrainConfig cfg = small_config();
  cfg.num_layers = num_layers;
  cfg.momentum = 0.9;
  cfg.num_blocks = 3;
  cfg.ap_mode = ap_mode;
  constexpr int kEpochs = 4;

  SingleSocketTrainer trainer(ds, cfg);
  std::vector<double> losses;
  for (int e = 0; e < kEpochs; ++e) losses.push_back(trainer.train_epoch().loss);

  SageModel model(ds.feature_dim(), cfg.hidden_dim, ds.num_classes, cfg.num_layers, cfg.seed);
  SoftmaxCrossEntropy loss;
  Sgd optimizer(cfg.lr, cfg.momentum, cfg.weight_decay);
  const CsrMatrix& in_csr = ds.graph.in_csr();
  const CsrMatrix& out_csr = ds.graph.out_csr();
  const BlockedCsr blocked_in(in_csr, cfg.num_blocks), blocked_out(out_csr, cfg.num_blocks);
  const auto aggregate_over = [&](bool transpose, ConstMatrixView X, DenseMatrix& out) {
    out.resize_discard(X.rows, X.cols, 0);
    if (cfg.ap_mode == ApMode::kOptimized) {
      aggregate_prepartitioned(transpose ? blocked_out : blocked_in, X, {}, out.view(), ApConfig{});
    } else {
      aggregate_baseline(transpose ? out_csr : in_csr, X, {}, out.view(), BinaryOp::kCopyLhs,
                         ReduceOp::kSum);
    }
  };
  const auto n = static_cast<std::size_t>(ds.num_vertices());
  DenseMatrix inv_norm(n, 1);
  for (std::size_t v = 0; v < n; ++v)
    inv_norm.at(v, 0) = 1.0f / (static_cast<real_t>(in_csr.degree(static_cast<vid_t>(v))) + 1.0f);

  std::vector<vid_t> all_rows(n);
  std::iota(all_rows.begin(), all_rows.end(), vid_t{0});
  std::vector<DenseMatrix> combined(static_cast<std::size_t>(cfg.num_layers));
  std::vector<DenseMatrix> acts(combined.size());
  DenseMatrix d_upper, dscaled, dH;
  for (int e = 0; e < kEpochs; ++e) {
    for (int l = 0; l < cfg.num_layers; ++l) {
      const auto li = static_cast<std::size_t>(l);
      const ConstMatrixView H = l == 0 ? ds.features.cview() : acts[li - 1].cview();
      aggregate_over(/*transpose=*/false, H, combined[li]);
      GraphSageLayer::combine(H, combined[li].cview(), inv_norm.cview(), combined[li].view());
      acts[li].resize_discard(n, model.layer(l).out_dim());
      model.layer(l).forward(combined[li].cview(), acts[li].view());
    }
    const double expected = loss.forward(acts.back().cview(), ds.labels, ds.train_mask);
    EXPECT_NEAR(losses[static_cast<std::size_t>(e)], expected, 1e-12 * expected) << "epoch " << e;
    model.zero_grad();
    d_upper.resize_discard(n, acts.back().cols());
    loss.backward(d_upper.view());
    for (int l = cfg.num_layers - 1; l >= 0; --l) {
      const auto li = static_cast<std::size_t>(l);
      dscaled.resize_discard(n, model.layer(l).in_dim());
      model.layer(l).backward(all_rows, combined[li].cview(), inv_norm.cview(), d_upper.cview(),
                              l > 0 ? dscaled.view() : MatrixView{});
      if (l == 0) break;
      aggregate_over(/*transpose=*/true, dscaled.cview(), dH);
      for (std::size_t i = 0; i < dH.size(); ++i) dH.data()[i] += dscaled.data()[i];
      std::swap(d_upper, dH);
    }
    auto params = model.params();
    optimizer.step(params);
  }

  const std::vector<ParamRef> got = trainer.model().params();
  const std::vector<ParamRef> want = model.params();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size, want[i].size);
    EXPECT_EQ(std::memcmp(got[i].value, want[i].value, want[i].size * sizeof(real_t)), 0)
        << "parameter " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SingleSocketReference,
    ::testing::Combine(::testing::Values(ApMode::kOptimized, ApMode::kBaseline),
                       ::testing::Values(2, 3),
                       ::testing::Values(MaskKind::kEmpty, MaskKind::kSingleRow,
                                         MaskKind::kAllRows, MaskKind::kRandomTenth)),
    [](const auto& info) {
      const ApMode mode = std::get<0>(info.param);
      return std::string(mode == ApMode::kOptimized ? "Optimized" : "Baseline") + "_" +
             std::to_string(std::get<1>(info.param)) + "Layers_" +
             mask_name(std::get<2>(info.param));
    });

TEST(SingleSocket, OutputFrontierIsTheTrainingRows) {
  const Dataset ds = learnable(512);
  SingleSocketTrainer trainer(ds, small_config());
  const OutputFrontier& f = trainer.output_frontier();
  std::vector<vid_t> want;
  eid_t edges = 0;
  for (vid_t v = 0; v < ds.num_vertices(); ++v) {
    if (!ds.train_mask[static_cast<std::size_t>(v)]) continue;
    want.push_back(v);
    edges += ds.graph.in_csr().degree(v);
  }
  EXPECT_EQ(std::vector<vid_t>(f.rows().begin(), f.rows().end()), want);
  EXPECT_EQ(f.num_edges(), edges);
}

TEST(FullBatchSage, RejectsPerRowInputsOfTheWrongLength) {
  const Dataset ds = learnable(64);
  const CsrMatrix& in_csr = ds.graph.in_csr();
  const std::vector<eid_t> degree(static_cast<std::size_t>(ds.num_vertices()), 1);
  const std::vector<int> short_labels(ds.labels.begin(), ds.labels.end() - 1);
  const auto build = [&](std::span<const eid_t> in_degree, std::span<const int> labels) {
    FullBatchSage pass({.in_csr = in_csr,
                        .out_csr = ds.graph.out_csr(),
                        .in_degree = in_degree,
                        .features = ds.features.cview(),
                        .labels = labels,
                        .output_rows = ds.train_mask,
                        .loss_rows = ds.train_mask},
                       small_config(), ds.num_classes, [] { return 0.0; });
  };
  EXPECT_NO_THROW(build(degree, ds.labels));
  EXPECT_THROW(build(degree, short_labels), std::invalid_argument);
  EXPECT_THROW(build(std::span(degree).first(1), ds.labels), std::invalid_argument);
}

TEST(SingleSocket, InputAggregationIsTimedOnceAtConstruction) {
  const Dataset ds = learnable(512);
  SingleSocketTrainer trainer(ds, small_config());
  EXPECT_GT(trainer.input_ap_seconds(), 0.0);
}

// A settled layer-0 input: the program keeps its combined input across
// training passes once the sync hook reports it settled, and an evaluation
// pass, which overwrites it, makes the next training pass sync again. The
// hook stands in for a halo: in training it adds a fixed row to every row
// of layer 0's aggregate, and it returns `settle` at every layer, which
// counts at layer 0 only. Evaluation adds nothing, the way an exact sync
// differs from a stale one, so it leaves combined_[0] unlike training's.
struct SettleRun {
  std::vector<double> losses;
  std::vector<std::vector<real_t>> params;
  std::array<int, 3> training_calls{};  // per layer
  int eval_calls = 0;                   // over every layer
  std::vector<real_t> logits;           // the last evaluation's
};

SettleRun run_with_hook(const Dataset& ds, bool cut, bool settle, bool evaluate) {
  TrainConfig cfg = small_config();
  cfg.num_layers = 3;
  cfg.momentum = 0.9;
  const auto n = static_cast<std::size_t>(ds.num_vertices());
  std::vector<eid_t> in_degree(n);
  for (std::size_t v = 0; v < n; ++v)
    in_degree[v] = ds.graph.in_csr().degree(static_cast<vid_t>(v));
  std::vector<real_t> bump(static_cast<std::size_t>(ds.feature_dim()));
  for (std::size_t j = 0; j < bump.size(); ++j) bump[j] = 0.25f * static_cast<real_t>(j % 3 + 1);

  SettleRun run;
  const auto hook = [&](int layer, bool training, MatrixView agg) {
    if (!training) {
      ++run.eval_calls;
      return FullBatchSage::SyncStatus{.settled = settle};
    }
    ++run.training_calls[static_cast<std::size_t>(layer)];
    if (layer == 0)
      for (std::size_t i = 0; i < agg.rows; ++i)
        for (std::size_t j = 0; j < agg.cols; ++j) agg.row(i)[j] += bump[j];
    return FullBatchSage::SyncStatus{.settled = settle};
  };
  // On a cut of one rank every row is owned and nothing moves.
  const std::vector<std::uint8_t> owned(n, 1);
  FullBatchSage::CutSync cut_sync;
  if (cut) cut_sync = {.owned = owned,
                       .reduce = [](int, MatrixView) {},
                       .broadcast = [](int, MatrixView) {}};
  FullBatchSage pass({.in_csr = ds.graph.in_csr(),
                      .out_csr = ds.graph.out_csr(),
                      .in_degree = in_degree,
                      .features = ds.features.cview(),
                      .labels = ds.labels,
                      .output_rows = ds.train_mask,
                      .loss_rows = ds.train_mask},
                     cfg, ds.num_classes, [] { return 0.0; }, hook, cut_sync);
  // The loss is an OpenMP reduction, whose partial sums add in any order
  // past two threads; two keep it bitwise.
  const int saved = par::max_threads();
  par::set_num_threads(2);
  for (int e = 0; e < 6; ++e) {
    PassTimes times;
    run.losses.push_back(pass.train_pass(0, times));
    pass.step(times);
    if (!evaluate || e % 2 == 0) continue;
    const ConstMatrixView logits = pass.forward_all();
    run.logits.assign(logits.data, logits.data + logits.rows * logits.cols);
  }
  par::set_num_threads(saved);
  for (const ParamRef& p : pass.model().params())
    run.params.emplace_back(p.value, p.value + p.size);
  return run;
}

TEST(FullBatchSage, SettledInputSurvivesEvaluation) {
  const Dataset ds = learnable(256, 4, 0.8f, 29);
  for (const bool cut : {false, true}) {
    const SettleRun plain = run_with_hook(ds, cut, /*settle=*/true, /*evaluate=*/false);
    const SettleRun evaluated = run_with_hook(ds, cut, /*settle=*/true, /*evaluate=*/true);
    const SettleRun never = run_with_hook(ds, cut, /*settle=*/false, /*evaluate=*/true);
    for (const SettleRun* run : {&evaluated, &never}) {
      EXPECT_EQ(run->losses, plain.losses) << (cut ? "cut" : "no cut");
      ASSERT_EQ(run->params.size(), plain.params.size());
      for (std::size_t i = 0; i < plain.params.size(); ++i) {
        ASSERT_EQ(run->params[i].size(), plain.params[i].size());
        EXPECT_EQ(std::memcmp(run->params[i].data(), plain.params[i].data(),
                              plain.params[i].size() * sizeof(real_t)),
                  0)
            << (cut ? "cut" : "no cut") << ", parameter " << i;
      }
    }
    // Evaluation syncs layer 0 whether or not training kept its input.
    ASSERT_FALSE(evaluated.logits.empty());
    EXPECT_EQ(evaluated.logits, never.logits) << (cut ? "cut" : "no cut");
    // Layer 0's hook runs until it reports settled and once after each of
    // the three evaluations but the last; the layers above run every pass.
    EXPECT_EQ(plain.training_calls, (std::array<int, 3>{1, 6, 6}));
    EXPECT_EQ(evaluated.training_calls, (std::array<int, 3>{3, 6, 6}));
    EXPECT_EQ(never.training_calls, (std::array<int, 3>{6, 6, 6}));
    EXPECT_EQ(plain.eval_calls, 0);
    EXPECT_EQ(evaluated.eval_calls, 9);
  }
}

// A vertex cut inside one program. Every fifth vertex v is split: a leaf
// clone, row n + k, takes every other in-edge of v and every third
// out-edge, and v, its root, keeps the rest. The leaf has v's features,
// label and global in-degree; it is on the training frontier where v is,
// reads no loss and is not owned. The sync hook is Alg. 4 at lag 0: each
// root adds its leaf's partial, and each leaf's row is set to its root's
// total (at the output layer too, so that a leaf's logits are its root's
// exactly when the layer below gave it its root's activations). It
// reports layer 0 settled, and every layer clone-exact or none. The cut
// sync moves rows the same way, in-process.
struct CutRun {
  std::vector<double> losses;
  std::vector<std::vector<real_t>> params;
  std::vector<real_t> logits;               // the last evaluation's
  std::vector<std::size_t> forward_rows;    // per layer, after the last training pass
  int forward_broadcasts = 0;               // activation moves, over every pass
  std::size_t rows = 0, owned = 0;
  std::vector<std::pair<vid_t, vid_t>> trees;  // (root, leaf)
};

CutRun run_on_cut(const Dataset& ds, bool clone_exact) {
  TrainConfig cfg = small_config();
  cfg.num_layers = 3;
  cfg.momentum = 0.9;
  const int last = cfg.num_layers - 1;
  const auto n = static_cast<std::size_t>(ds.num_vertices());
  CutRun run;
  std::vector<vid_t> leaf_of(n, -1);
  for (std::size_t v = 0; v < n; v += 5) {
    leaf_of[v] = static_cast<vid_t>(n + run.trees.size());
    run.trees.emplace_back(static_cast<vid_t>(v), leaf_of[v]);
  }
  const std::size_t rows = n + run.trees.size();
  run.rows = rows;
  run.owned = n;
  EdgeList edges;
  edges.num_vertices = static_cast<vid_t>(rows);
  const EdgeList& coo = ds.graph.coo();
  for (std::size_t i = 0; i < coo.edges.size(); ++i) {
    const auto [src, dst] = coo.edges[i];
    const vid_t leaf_src = leaf_of[static_cast<std::size_t>(src)];
    const vid_t leaf_dst = leaf_of[static_cast<std::size_t>(dst)];
    edges.add(leaf_src >= 0 && i % 3 == 1 ? leaf_src : src,
              leaf_dst >= 0 && i % 2 == 1 ? leaf_dst : dst);
  }
  const CsrMatrix in_csr = CsrMatrix::from_coo(edges);
  const CsrMatrix out_csr = CsrMatrix::transpose_from_coo(edges);
  std::vector<eid_t> in_degree(rows);
  DenseMatrix features(rows, static_cast<std::size_t>(ds.feature_dim()));
  std::vector<int> labels(rows);
  std::vector<std::uint8_t> output_rows(rows), loss_rows(rows), owned(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto v = static_cast<std::size_t>(r < n ? static_cast<vid_t>(r) : run.trees[r - n].first);
    in_degree[r] = ds.graph.in_csr().degree(static_cast<vid_t>(v));
    std::memcpy(features.row(r), ds.features.row(v), features.cols() * sizeof(real_t));
    labels[r] = ds.labels[v];
    output_rows[r] = ds.train_mask[v];
    loss_rows[r] = r < n ? ds.train_mask[v] : 0;
    owned[r] = r < n ? 1 : 0;
  }
  // The training output layer's rows are the frontier's compact ids.
  std::vector<vid_t> compact(rows, -1);
  vid_t next = 0;
  for (std::size_t r = 0; r < rows; ++r)
    if (output_rows[r]) compact[r] = next++;
  const auto id = [&](bool frontier, vid_t r) {
    return static_cast<std::size_t>(frontier ? compact[static_cast<std::size_t>(r)] : r);
  };
  const auto to_root = [&](bool frontier, MatrixView m) {
    for (const auto& [root, leaf] : run.trees) {
      if (frontier && compact[static_cast<std::size_t>(root)] < 0) continue;
      real_t* dst = m.row(id(frontier, root));
      const real_t* src = m.row(id(frontier, leaf));
      for (std::size_t j = 0; j < m.cols; ++j) dst[j] += src[j];
    }
  };
  const auto to_leaf = [&](bool frontier, MatrixView m) {
    for (const auto& [root, leaf] : run.trees) {
      if (frontier && compact[static_cast<std::size_t>(root)] < 0) continue;
      std::memcpy(m.row(id(frontier, leaf)), m.row(id(frontier, root)), m.cols * sizeof(real_t));
    }
  };
  // Set at the start of each pass; the backward's first move is the output
  // layer's dscaled.
  bool in_forward = false;
  const auto hook = [&](int layer, bool training, MatrixView agg) {
    const bool frontier = training && layer == last;
    to_root(frontier, agg);
    to_leaf(frontier, agg);
    return FullBatchSage::SyncStatus{.settled = layer == 0, .clone_exact = clone_exact};
  };
  FullBatchSage::CutSync cut_sync{
      .owned = owned,
      .reduce = [&](int, MatrixView dH) { to_root(false, dH); },
      .broadcast = [&](int layer, MatrixView m) {
        if (layer == last) in_forward = false;
        if (in_forward) ++run.forward_broadcasts;
        to_leaf(layer == last, m);
      }};
  FullBatchSage pass({.in_csr = in_csr,
                      .out_csr = out_csr,
                      .in_degree = in_degree,
                      .features = features.cview(),
                      .labels = labels,
                      .output_rows = output_rows,
                      .loss_rows = loss_rows},
                     cfg, ds.num_classes, [] { return 0.0; }, hook, cut_sync);
  // Two threads keep the loss reduction bitwise (see run_with_hook).
  const int saved = par::max_threads();
  par::set_num_threads(2);
  for (int e = 0; e < 4; ++e) {
    PassTimes times;
    in_forward = true;
    run.losses.push_back(pass.train_pass(0, times));
    pass.step(times);
    if (e != 1) continue;
    in_forward = true;
    pass.forward_all();
  }
  for (int l = 0; l < cfg.num_layers; ++l)
    run.forward_rows.push_back(pass.model().layer(l).forward_rows());
  in_forward = true;
  const ConstMatrixView logits = pass.forward_all();
  run.logits.assign(logits.data, logits.data + logits.rows * logits.cols);
  par::set_num_threads(saved);
  for (const ParamRef& p : pass.model().params())
    run.params.emplace_back(p.value, p.value + p.size);
  return run;
}

TEST(FullBatchSage, CloneExactLayersRunTheLinearOnOwnedRowsOnly) {
  const Dataset ds = learnable(256, 4, 0.8f, 29);
  const CutRun every = run_on_cut(ds, /*clone_exact=*/false);
  const CutRun owned = run_on_cut(ds, /*clone_exact=*/true);
  ASSERT_GT(owned.rows, owned.owned);
  // The Linear of each layer below the output ran on the owned rows only;
  // without the report, on every clone. The output layer runs on the
  // training frontier either way.
  for (std::size_t l = 0; l + 1 < owned.forward_rows.size(); ++l) {
    EXPECT_EQ(owned.forward_rows[l], owned.owned) << "layer " << l;
    EXPECT_EQ(every.forward_rows[l], every.rows) << "layer " << l;
  }
  EXPECT_EQ(owned.forward_rows.back(), every.forward_rows.back());
  // One activation move per layer below the output and pass: four training
  // passes (layer 0 kept from the second on, and again after the
  // evaluation) and two evaluations, two layers each.
  EXPECT_EQ(owned.forward_broadcasts, 12);
  EXPECT_EQ(every.forward_broadcasts, 0);
  // The leaves received bitwise what their own Linear computes.
  EXPECT_EQ(owned.losses, every.losses);
  ASSERT_EQ(owned.params.size(), every.params.size());
  for (std::size_t i = 0; i < every.params.size(); ++i)
    EXPECT_EQ(std::memcmp(owned.params[i].data(), every.params[i].data(),
                          every.params[i].size() * sizeof(real_t)),
              0)
        << "parameter " << i;
  EXPECT_EQ(std::memcmp(owned.logits.data(), every.logits.data(),
                        every.logits.size() * sizeof(real_t)),
            0);
  // Every leaf's activations below the output are its root's: with its
  // root's synced aggregate, its logits row is its root's too.
  const std::size_t classes = every.logits.size() / every.rows;
  for (const CutRun* run : {&every, &owned})
    for (const auto& [root, leaf] : run->trees)
      EXPECT_EQ(std::memcmp(run->logits.data() + static_cast<std::size_t>(leaf) * classes,
                            run->logits.data() + static_cast<std::size_t>(root) * classes,
                            classes * sizeof(real_t)),
                0)
          << "leaf " << leaf << " of root " << root;
}

// ---- Table 7 / 8 work model, validated against the paper's own numbers ----

TEST(WorkModel, Table7PaperNumbers) {
  // Table 7 rows: hop-2 (233,692 vertices, deg 5, 100 feats), hop-1 (30,214,
  // deg 10, 256), hop-0 (2,000, deg 15, 256).
  const std::vector<HopWork> hops{
      {"Hop-2", 233'692, 5, 100},
      {"Hop-1", 30'214, 10, 256},
      {"Hop-0", 2'000, 15, 256},
  };
  EXPECT_NEAR(hops[0].giga_ops(), 0.116, 0.002);
  EXPECT_NEAR(hops[1].giga_ops(), 0.077, 0.002);
  EXPECT_NEAR(hops[2].giga_ops(), 0.007, 0.001);

  // 196,615 training vertices, batch 2000 -> 99 batches on one socket.
  const MiniBatchWork single = minibatch_work(hops, 196'615, 2'000, 1);
  EXPECT_EQ(single.batches_per_socket, 99);
  EXPECT_NEAR(single.socket_ops / 1e9, 19.98, 0.3);

  const MiniBatchWork sixteen = minibatch_work(hops, 196'615, 2'000, 16);
  EXPECT_EQ(sixteen.batches_per_socket, 7);
  EXPECT_NEAR(sixteen.socket_ops / 1e9, 1.41, 0.05);
}

TEST(WorkModel, Table8PaperNumbers) {
  // Full batch on OGBN-Products: 2,449,029 vertices, avg degree 51.5,
  // feats {100, 256, 256}.
  const FullBatchWork one = fullbatch_work(2'449'029, 51.5, {100, 256, 256});
  EXPECT_NEAR(one.socket_ops / 1e9, 77.19, 0.5);
  ASSERT_EQ(one.hops.size(), 3u);
  EXPECT_NEAR(one.hops[0].giga_ops(), 12.61, 0.1);
  EXPECT_NEAR(one.hops[1].giga_ops(), 32.29, 0.1);

  const FullBatchWork sixteen = fullbatch_work(596'499, 51.5, {100, 256, 256});
  EXPECT_NEAR(sixteen.socket_ops / 1e9, 18.80, 0.2);
}

TEST(WorkModel, OutputFrontierNumbers) {
  // The same OGBN-Products shapes with the output hop on the frontier: the
  // 196,615 training vertices on one socket, and on 16 their clones at the
  // training rate, 596,499 x 196,615 / 2,449,029 = 47,889 per partition.
  const FullBatchWork one = fullbatch_work(2'449'029, 51.5, {100, 256, 256}, 196'615);
  ASSERT_EQ(one.hops.size(), 3u);
  EXPECT_EQ(one.hops[0].vertices, 2'449'029);
  EXPECT_EQ(one.hops[1].vertices, 2'449'029);
  EXPECT_EQ(one.hops[2].vertices, 196'615);
  EXPECT_EQ(one.hops[2].label, "Hop-0");
  EXPECT_NEAR(one.hops[0].giga_ops(), 12.61, 0.1);
  EXPECT_NEAR(one.hops[1].giga_ops(), 32.29, 0.1);
  EXPECT_NEAR(one.hops[2].giga_ops(), 2.592, 0.001);
  EXPECT_NEAR(one.socket_ops / 1e9, 47.49, 0.01);

  const FullBatchWork sixteen = fullbatch_work(596'499, 51.5, {100, 256, 256}, 47'889);
  EXPECT_NEAR(sixteen.hops[2].giga_ops(), 0.631, 0.001);
  EXPECT_NEAR(sixteen.socket_ops / 1e9, 11.57, 0.01);
}

TEST(WorkModel, FullBatchDoesMoreWorkThanMiniBatch) {
  // The paper's ~4x-13x observation.
  const std::vector<HopWork> hops{
      {"Hop-2", 233'692, 5, 100}, {"Hop-1", 30'214, 10, 256}, {"Hop-0", 2'000, 15, 256}};
  const double mini = minibatch_work(hops, 196'615, 2'000, 1).socket_ops;
  const double full = fullbatch_work(2'449'029, 51.5, {100, 256, 256}).socket_ops;
  EXPECT_GT(full / mini, 3.0);
  EXPECT_LT(full / mini, 5.0);
}

// ---- Table 6 memory model ----

TEST(MemoryModel, AlgorithmOrderingMatchesPaper) {
  MemoryModelInput in;
  in.partition_vertices = 3'470'623;  // papers at 32 partitions
  in.split_vertices = static_cast<std::int64_t>(0.90 * 3'470'623);
  in.delay = 5;
  const double zc = estimate_memory_0c(in).total_gb;
  const double cd0 = estimate_memory_cd0(in).total_gb;
  const double cdr = estimate_memory_cdr(in).total_gb;
  // Paper Table 6: 0c < cd-0 < cd-5 at every partition count.
  EXPECT_LT(zc, cd0);
  EXPECT_LT(cd0, cdr);
  // cd-5 is roughly 1.5-1.6x cd-0 in the paper.
  EXPECT_GT(cdr / cd0, 1.2);
  EXPECT_LT(cdr / cd0, 2.2);
}

TEST(MemoryModel, MemoryShrinksWithMorePartitions) {
  MemoryModelInput big, small;
  big.partition_vertices = 3'470'623;   // 32 partitions
  big.split_vertices = static_cast<std::int64_t>(0.90 * big.partition_vertices);
  small.partition_vertices = 867'656;   // 128 partitions
  small.split_vertices = static_cast<std::int64_t>(0.93 * small.partition_vertices);
  EXPECT_GT(estimate_memory_cd0(big).total_gb, estimate_memory_cd0(small).total_gb);
  EXPECT_GT(estimate_memory_cdr(big).total_gb, estimate_memory_cdr(small).total_gb);
}

}  // namespace
}  // namespace distgnn
