#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/distributed_trainer.hpp"
#include "core/single_socket_trainer.hpp"
#include "graph/datasets.hpp"
#include "partition/halo_plan.hpp"
#include "partition/libra.hpp"
#include "partition/partition_setup.hpp"
#include "util/parallel.hpp"

namespace distgnn {
namespace {

Dataset learnable(vid_t n = 1024, std::uint64_t seed = 31, float noise = 0.8f) {
  LearnableSbmParams p;
  p.num_vertices = n;
  p.num_classes = 4;
  p.avg_degree = 12;
  p.feature_dim = 16;
  p.feature_noise = noise;
  p.seed = seed;
  return make_learnable_sbm(p);
}

TrainConfig dist_config(Algorithm alg, int epochs = 10) {
  TrainConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden_dim = 32;
  cfg.lr = 0.2;
  cfg.epochs = epochs;
  cfg.algorithm = alg;
  cfg.delay = 3;
  cfg.threads_per_rank = 2;
  return cfg;
}

PartitionedGraph partitioned(const Dataset& ds, part_t parts) {
  return build_partitions(ds.graph.coo(), partition_libra(ds.graph.coo(), parts), 5);
}

// The output frontier of a rank: every local clone of a training vertex,
// as compact ids (-1 off the frontier) and as the ascending local rows.
struct TrainClones {
  std::vector<vid_t> compact;
  std::vector<vid_t> rows;
};

TrainClones train_clones(const LocalPartition& lp, const std::vector<std::uint8_t>& train_mask) {
  TrainClones out;
  out.compact.assign(static_cast<std::size_t>(lp.num_vertices), -1);
  for (vid_t v = 0; v < lp.num_vertices; ++v) {
    if (!train_mask[static_cast<std::size_t>(lp.global_ids[static_cast<std::size_t>(v)])]) continue;
    out.compact[static_cast<std::size_t>(v)] = static_cast<vid_t>(out.rows.size());
    out.rows.push_back(v);
  }
  return out;
}

// The halo bytes a cd-0 or cd-r run sends, counted from the plans. A
// payload of v values takes 4v bytes in fp32 and 4 * ceil(v / 2) in bf16 and
// fp16 (two values per packed word), with no header. Training's forward, per
// epoch: cd-0 runs both moves below the output layer over the full plan,
// layer 0's at epoch 0 only (its input then settles), and the output layer
// leaf->root over the training-tree plan; cd-r sends bin e mod r's
// leaf->root move from epoch 0 and its root->leaf move from epoch r, each
// only if it lands r epochs later before its layer's last receive: the
// run's end, or, for kCache's layer 0 below the output, the epoch after it
// settles at 3r - 1. A clone-exact layer below the output (every cd-0 layer,
// and kCache's layer 0 from the epoch it settles) then sets its leaves'
// activations root->leaf over every bin of the full plan, hidden_dim wide,
// with fp32 halos only. The backward reduces each layer below the output's
// gradient leaf->root and broadcasts each layer above 0's root->leaf, every
// epoch over every bin of the plan its forward used, both hidden_dim wide.
// The closing evaluation runs the full plan over every bin, again with no
// root->leaf move at the output layer, and, with fp32 halos, the activation
// move below the output layer.
struct PlannedHaloBytes {
  std::uint64_t exchange = 0;     // the halo exchange, forward and backward
  std::uint64_t activations = 0;  // the clone-exact layers' activation moves
  std::uint64_t total() const { return exchange + activations; }
};

PlannedHaloBytes planned_halo_bytes(const Dataset& ds, const PartitionedGraph& pg,
                                    const TrainConfig& cfg) {
  const bool cdr = cfg.algorithm == Algorithm::kCdR;
  const bool fp32 = cfg.halo_precision == HaloPrecision::kFp32;
  const int bins = cdr ? cfg.delay : 1, r = cfg.delay, last = cfg.num_layers - 1;
  const std::vector<HaloPlan> plans = build_halo_plans(pg, bins);
  const auto hidden = static_cast<std::uint64_t>(cfg.hidden_dim);
  // The bytes this rank sends in one move of `bin`, `width` values per row:
  // its leaves to roots, its roots to leaves.
  const auto sent = [&](const HaloPlan& plan, int bin, bool to_root, std::uint64_t width) {
    std::uint64_t bytes = 0;
    for (part_t q = 0; q < pg.num_parts; ++q) {
      const std::uint64_t values =
          (to_root ? plan.peer(bin, q).leaf : plan.peer(bin, q).root).size() * width;
      bytes += sizeof(real_t) * (fp32 ? values : (values + 1) / 2);
    }
    return bytes;
  };
  PlannedHaloBytes planned;
  std::uint64_t& bytes = planned.exchange;
  for (const LocalPartition& lp : pg.parts) {
    const HaloPlan& full = plans[static_cast<std::size_t>(lp.id)];
    const HaloPlan out = restrict_halo_plan(full, train_clones(lp, ds.train_mask).compact);
    for (int l = 0; l <= last; ++l) {
      const HaloPlan& train = l == last ? out : full;
      const auto width = static_cast<std::uint64_t>(l == 0 ? ds.feature_dim() : cfg.hidden_dim);
      const bool cache = !cdr || cfg.staleness == StalenessPolicy::kCache;
      const bool settles = l == 0 && l != last && cache;
      const int end = settles ? std::min(cdr ? 3 * r : 1, cfg.epochs) : cfg.epochs;
      for (int e = 0; e < cfg.epochs; ++e) {
        if (cfg.algorithm == Algorithm::kCd0 && e < end) {
          bytes += sent(train, 0, true, width);
          if (l != last) bytes += sent(train, 0, false, width);
        }
        if (cdr) {
          if (e + r < end) bytes += sent(train, e % r, true, width);
          if (l != last && e >= r && e + r < end) bytes += sent(train, e % r, false, width);
        }
        const bool clone_exact = fp32 && l != last && (!cdr || (settles && e >= 3 * r - 1));
        for (int b = 0; b < bins; ++b) {
          if (clone_exact) planned.activations += sent(full, b, false, hidden);
          if (l != last) bytes += sent(train, b, true, hidden);
          if (l > 0) bytes += sent(train, b, false, hidden);
        }
      }
      for (int b = 0; b < bins; ++b) {
        bytes += sent(full, b, true, width);
        if (l != last) bytes += sent(full, b, false, width);
        if (fp32 && l != last) planned.activations += sent(full, b, false, hidden);
      }
    }
  }
  return planned;
}

TEST(Distributed, Cd0MatchesSingleSocket) {
  // cd-0 synchronizes complete neighbourhoods in the forward and reduces
  // and broadcasts the split vertices' feature gradients in the backward,
  // so from identical initial weights every epoch's loss is the single
  // socket's up to floating-point reassociation.
  const Dataset ds = learnable(1024, 33);
  TrainConfig cfg = dist_config(Algorithm::kCd0, 8);

  SingleSocketTrainer single(ds, cfg);
  std::vector<double> single_losses;
  for (int e = 0; e < cfg.epochs; ++e) single_losses.push_back(single.train_epoch().loss);

  const PartitionedGraph pg = partitioned(ds, 4);
  const DistTrainResult dist = train_distributed(ds, pg, cfg);
  ASSERT_EQ(dist.epochs.size(), single_losses.size());
  for (std::size_t e = 0; e < single_losses.size(); ++e)
    EXPECT_NEAR(dist.epochs[e].loss, single_losses[e], 1e-5 * std::abs(single_losses[e]))
        << "epoch " << e;
  EXPECT_LT(dist.epochs.back().loss, dist.epochs.front().loss);
}

class AlgorithmTest : public ::testing::TestWithParam<std::tuple<Algorithm, part_t>> {};

TEST_P(AlgorithmTest, TrainsAndConverges) {
  const auto [alg, parts] = GetParam();
  const Dataset ds = learnable(1024, 35, 0.6f);
  const TrainConfig cfg = dist_config(alg, 30);
  const PartitionedGraph pg = partitioned(ds, parts);
  const DistTrainResult result = train_distributed(ds, pg, cfg);

  EXPECT_LT(result.epochs.back().loss, 0.6 * result.epochs.front().loss);
  EXPECT_GT(result.test_accuracy, 0.6);  // chance 0.25
}

INSTANTIATE_TEST_SUITE_P(
    Grid, AlgorithmTest,
    ::testing::Combine(::testing::Values(Algorithm::k0c, Algorithm::kCd0, Algorithm::kCdR),
                       ::testing::Values(part_t{2}, part_t{4})),
    [](const auto& info) {
      std::string name = to_string(std::get<0>(info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name + "_parts" + std::to_string(std::get<1>(info.param));
    });

TEST(Distributed, ZeroCommunicationFor0c) {
  const Dataset ds = learnable(512, 37);
  const PartitionedGraph pg = partitioned(ds, 4);
  TrainConfig cfg = dist_config(Algorithm::k0c, 3);
  const DistTrainResult result = train_distributed(ds, pg, cfg);
  // Gradient allreduce still happens, but no halo bytes move during training
  // (only the final exact evaluation communicates).
  EXPECT_GT(result.allreduce_bytes, 0u);
}

TEST(Distributed, CdrSendsFewerHaloBytesPerEpochThanCd0) {
  const Dataset ds = learnable(1024, 39);
  const PartitionedGraph pg = partitioned(ds, 4);
  TrainConfig cfg = dist_config(Algorithm::kCd0, 12);
  const auto cd0 = train_distributed(ds, pg, cfg);
  cfg.algorithm = Algorithm::kCdR;
  cfg.delay = 4;
  const auto cdr = train_distributed(ds, pg, cfg);
  // cd-r touches 1/r of the split trees per epoch.
  EXPECT_LT(cdr.total_bytes_sent, cd0.total_bytes_sent);
}

TEST(Distributed, AccuracyWithinFewPercentAcrossAlgorithms) {
  // The Table 5 property: cd-0 / cd-r / 0c all land within ~1% of each other
  // (we allow a little more at this scale).
  const Dataset ds = learnable(2048, 41, 0.5f);
  const PartitionedGraph pg = partitioned(ds, 4);
  TrainConfig cfg = dist_config(Algorithm::kCd0, 40);

  const double acc_cd0 = train_distributed(ds, pg, cfg).test_accuracy;
  cfg.algorithm = Algorithm::k0c;
  const double acc_0c = train_distributed(ds, pg, cfg).test_accuracy;
  cfg.algorithm = Algorithm::kCdR;
  cfg.delay = 5;
  const double acc_cdr = train_distributed(ds, pg, cfg).test_accuracy;

  EXPECT_GT(acc_cd0, 0.75);
  EXPECT_NEAR(acc_0c, acc_cd0, 0.08);
  EXPECT_NEAR(acc_cdr, acc_cd0, 0.08);
}

TEST(Distributed, LiteralStalenessPolicyAlsoConverges) {
  const Dataset ds = learnable(1024, 43, 0.6f);
  const PartitionedGraph pg = partitioned(ds, 4);
  TrainConfig cfg = dist_config(Algorithm::kCdR, 30);
  cfg.staleness = StalenessPolicy::kLiteral;
  const DistTrainResult result = train_distributed(ds, pg, cfg);
  EXPECT_LT(result.epochs.back().loss, 0.7 * result.epochs.front().loss);
  EXPECT_GT(result.test_accuracy, 0.5);
}

TEST(Distributed, SinglePartitionMatchesSingleSocket) {
  // One part is a cut without split vertices, where every row is owned: each
  // algorithm then runs the single socket's program on the same rows, on the
  // same thread count, in either AP mode, and gives its losses and
  // accuracies.
  const Dataset ds = learnable(512, 45);
  const PartitionedGraph pg = partitioned(ds, 1);
  const std::pair<Algorithm, StalenessPolicy> variants[] = {
      {Algorithm::k0c, StalenessPolicy::kCache},
      {Algorithm::kCd0, StalenessPolicy::kCache},
      {Algorithm::kCdR, StalenessPolicy::kCache},
      {Algorithm::kCdR, StalenessPolicy::kLiteral}};
  for (const ApMode mode : {ApMode::kOptimized, ApMode::kBaseline}) {
    for (const auto& [algorithm, staleness] : variants) {
      TrainConfig cfg = dist_config(algorithm, 10);
      cfg.ap_mode = mode;
      cfg.staleness = staleness;
      const std::string name = to_string(algorithm) +
                               (staleness == StalenessPolicy::kCache ? " kCache" : " kLiteral") +
                               (mode == ApMode::kOptimized ? " optimized" : " baseline");

      const int saved = par::max_threads();
      par::set_num_threads(cfg.threads_per_rank);
      SingleSocketTrainer single(ds, cfg);
      std::vector<double> expect;
      for (int e = 0; e < cfg.epochs; ++e) expect.push_back(single.train_epoch().loss);
      const double train = single.evaluate(ds.train_mask);
      const double val = single.evaluate(ds.val_mask);
      const double test = single.evaluate(ds.test_mask);
      par::set_num_threads(saved);

      const DistTrainResult result = train_distributed(ds, pg, cfg);
      ASSERT_EQ(result.epochs.size(), expect.size()) << name;
      for (std::size_t e = 0; e < expect.size(); ++e)
        EXPECT_NEAR(result.epochs[e].loss, expect[e], 1e-12 * expect[e])
            << name << ", epoch " << e;
      EXPECT_EQ(result.train_accuracy, train) << name;
      EXPECT_EQ(result.val_accuracy, val) << name;
      EXPECT_EQ(result.test_accuracy, test) << name;
    }
  }
}

TEST(Distributed, EpochRecordsArePopulated) {
  const Dataset ds = learnable(512, 47);
  const PartitionedGraph pg = partitioned(ds, 2);
  const DistTrainResult result = train_distributed(ds, pg, dist_config(Algorithm::kCd0, 5));
  ASSERT_EQ(result.epochs.size(), 5u);
  for (const auto& rec : result.epochs) {
    EXPECT_GT(rec.total_seconds, 0.0);
    EXPECT_GT(rec.local_agg_seconds, 0.0);
    EXPECT_GE(rec.remote_agg_seconds, 0.0);
    EXPECT_TRUE(std::isfinite(rec.loss));
  }
  EXPECT_GT(result.mean_epoch_seconds(1), 0.0);
  EXPECT_GT(result.mean_local_agg_seconds(1), 0.0);
}

class HaloPrecisionTest : public ::testing::TestWithParam<HaloPrecision> {};

TEST_P(HaloPrecisionTest, LowPrecisionHalosStillConverge) {
  // §7 future work: FP16/BF16 halo payloads halve communication volume; the
  // training must still converge to nearly the same accuracy.
  const Dataset ds = learnable(1024, 51, 0.6f);
  const PartitionedGraph pg = partitioned(ds, 4);
  TrainConfig cfg = dist_config(Algorithm::kCd0, 30);
  cfg.halo_precision = GetParam();
  const DistTrainResult result = train_distributed(ds, pg, cfg);
  EXPECT_LT(result.epochs.back().loss, 0.6 * result.epochs.front().loss);
  EXPECT_GT(result.test_accuracy, 0.6);
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, HaloPrecisionTest,
                         ::testing::Values(HaloPrecision::kFp32, HaloPrecision::kBf16,
                                           HaloPrecision::kFp16),
                         [](const auto& info) { return to_string(info.param); });

TEST(Distributed, Bf16HalvesHaloBytes) {
  const Dataset ds = learnable(1024, 53);
  const PartitionedGraph pg = partitioned(ds, 4);
  TrainConfig cfg = dist_config(Algorithm::kCd0, 4);
  const auto fp32 = train_distributed(ds, pg, cfg);
  // fp32 also sends the clone-exact layers' activation moves, which a bf16
  // run does not make (OutputHaloPlan.LowPrecisionHalosSendNoActivationMove):
  // the moves both runs make are the rest of fp32's bytes.
  const double both = static_cast<double>(fp32.total_bytes_sent) -
                      static_cast<double>(planned_halo_bytes(ds, pg, cfg).activations);
  cfg.halo_precision = HaloPrecision::kBf16;
  const auto bf16 = train_distributed(ds, pg, cfg);
  // Halo traffic halves; the (fp32) gradient allreduce is unchanged.
  EXPECT_NEAR(static_cast<double>(bf16.total_bytes_sent), 0.5 * both, 0.1 * both);
  EXPECT_EQ(bf16.allreduce_bytes, fp32.allreduce_bytes);
}

TEST(Distributed, CdrRejectsDelayBelowOne) {
  // cd-r with r < 1 is not cd-0 in disguise: the caller asked for bins that
  // do not exist, and silently training cd-1 would mislabel the run.
  const Dataset ds = learnable(256, 61);
  const PartitionedGraph pg = partitioned(ds, 2);
  TrainConfig cfg = dist_config(Algorithm::kCdR, 2);
  for (const int delay : {0, -1}) {
    cfg.delay = delay;
    EXPECT_THROW(train_distributed(ds, pg, cfg), std::invalid_argument) << "delay " << delay;
  }
}

// Every (layers, halo precision) pair the halo tests below sweep.
std::vector<std::pair<int, HaloPrecision>> halo_sweep() {
  std::vector<std::pair<int, HaloPrecision>> out;
  for (const int layers : {1, 2, 3})
    for (const HaloPrecision p : {HaloPrecision::kFp32, HaloPrecision::kBf16})
      out.emplace_back(layers, p);
  return out;
}

TEST(Distributed, CdrBeforeItsFirstMaturedBinRunsThe0cForward) {
  // Before epoch r no delayed partial has matured, so cd-r's aggregates are
  // the local partials of 0c: from the same initial weights its epoch-0
  // loss is bitwise 0c's. Its backward exchange runs at lag 0 over every
  // bin, and a root adds its leaves' gradients in peer order whichever bin
  // holds its tree, so before epoch r its losses are bitwise those of a
  // longer delay, under either staleness policy.
  const Dataset ds = learnable(1024, 33);
  const PartitionedGraph pg = partitioned(ds, 4);
  for (const auto& [layers, precision] : halo_sweep()) {
    TrainConfig cfg = dist_config(Algorithm::k0c, 5);
    cfg.num_layers = layers;
    cfg.halo_precision = precision;
    const DistTrainResult zero = train_distributed(ds, pg, cfg);
    cfg.algorithm = Algorithm::kCdR;
    for (const StalenessPolicy policy : {StalenessPolicy::kCache, StalenessPolicy::kLiteral}) {
      cfg.staleness = policy;
      const DistTrainResult cdr = train_distributed(ds, pg, cfg);
      TrainConfig longer_cfg = cfg;
      longer_cfg.delay = cfg.epochs;  // matures after the run
      const DistTrainResult longer = train_distributed(ds, pg, longer_cfg);
      EXPECT_EQ(cdr.epochs[0].loss, zero.epochs[0].loss)
          << layers << " layers, " << to_string(precision);
      for (int e = 0; e < cfg.delay; ++e)
        EXPECT_EQ(cdr.epochs[static_cast<std::size_t>(e)].loss,
                  longer.epochs[static_cast<std::size_t>(e)].loss)
            << layers << " layers, " << to_string(precision) << ", epoch " << e;
      // The first matured bin changes the aggregates.
      EXPECT_NE(cdr.epochs.back().loss, longer.epochs.back().loss) << layers << " layers";
    }
  }
}

TEST(Distributed, Cd0IgnoresTheStalenessPolicy) {
  // cd-0 is Alg. 4 with lag 0: it keeps no stale channel, so the policy,
  // which picks among cd-r's stale channels, cannot change a bit.
  const Dataset ds = learnable(1024, 33);
  const PartitionedGraph pg = partitioned(ds, 4);
  for (const auto& [layers, precision] : halo_sweep()) {
    TrainConfig cfg = dist_config(Algorithm::kCd0, 5);
    cfg.num_layers = layers;
    cfg.halo_precision = precision;
    cfg.staleness = StalenessPolicy::kCache;
    const DistTrainResult cache = train_distributed(ds, pg, cfg);
    cfg.staleness = StalenessPolicy::kLiteral;
    const DistTrainResult literal = train_distributed(ds, pg, cfg);
    for (std::size_t e = 0; e < cache.epochs.size(); ++e)
      EXPECT_EQ(cache.epochs[e].loss, literal.epochs[e].loss)
          << layers << " layers, " << to_string(precision) << ", epoch " << e;
    EXPECT_EQ(cache.train_accuracy, literal.train_accuracy);
    EXPECT_EQ(cache.val_accuracy, literal.val_accuracy);
    EXPECT_EQ(cache.test_accuracy, literal.test_accuracy);
    EXPECT_EQ(cache.total_bytes_sent, literal.total_bytes_sent);
  }
}

TEST(Distributed, CdrCacheWithFrozenWeightsIsCd0OnceEveryBinHasMatured) {
  // With lr = 0 the weights never move, so a stale payload equals a fresh
  // one, and kCache, which re-applies the last payload of every channel in
  // lag 0's peer order, runs cd-0's forward once every channel carries a
  // payload sent from matured inputs. Layer 0's leaves hold totals from
  // epoch 3r - 1 on (r to reach the roots, r to return, r - 1 to the last
  // bin); each later layer's payloads are computed from the layer below, so
  // a hidden layer matures 3r - 1 epochs after its input and the output
  // layer, which returns nothing, 2r - 1 after. kLiteral applies only this
  // epoch's payloads, so it never runs cd-0's forward.
  const Dataset ds = learnable(1024, 33);
  const PartitionedGraph pg = partitioned(ds, 4);
  for (const auto& [layers, precision] : halo_sweep()) {
    TrainConfig cfg = dist_config(Algorithm::kCd0);
    cfg.lr = 0;
    cfg.num_layers = layers;
    cfg.halo_precision = precision;
    const int r = cfg.delay;
    const int matured = (layers - 1) * (3 * r - 1) + 2 * r - 1;
    cfg.epochs = matured + r;
    const DistTrainResult cd0 = train_distributed(ds, pg, cfg);
    cfg.algorithm = Algorithm::kCdR;
    cfg.staleness = StalenessPolicy::kCache;
    const DistTrainResult cache = train_distributed(ds, pg, cfg);
    cfg.staleness = StalenessPolicy::kLiteral;
    const DistTrainResult literal = train_distributed(ds, pg, cfg);
    const auto loss = [](const DistTrainResult& result, int e) {
      return result.epochs[static_cast<std::size_t>(e)].loss;
    };
    EXPECT_NE(loss(cache, matured - 1), loss(cd0, matured - 1))
        << layers << " layers, " << to_string(precision);
    bool literal_differs = false;
    for (int e = matured; e < cfg.epochs; ++e) {
      EXPECT_EQ(loss(cache, e), loss(cd0, e))
          << layers << " layers, " << to_string(precision) << ", epoch " << e;
      literal_differs = literal_differs || loss(literal, e) != loss(cd0, e);
    }
    EXPECT_TRUE(literal_differs) << layers << " layers, " << to_string(precision);
  }
}

TEST(OutputHaloPlan, IsThePlanRestrictedToTrainingTreesOnBothEnds) {
  const Dataset ds = learnable(1024, 55);
  const PartitionedGraph pg = partitioned(ds, 4);
  for (const int bins : {1, 3}) {
    const std::vector<HaloPlan> plans = build_halo_plans(pg, bins);
    std::vector<TrainClones> clones;
    std::vector<HaloPlan> out_plans;
    for (const LocalPartition& lp : pg.parts) {
      clones.push_back(train_clones(lp, ds.train_mask));
      out_plans.push_back(restrict_halo_plan(plans[static_cast<std::size_t>(lp.id)],
                                             clones.back().compact));
    }
    // Local row of compact id `c` on partition p, and its global vertex.
    const auto local = [&](part_t p, vid_t c) {
      return clones[static_cast<std::size_t>(p)].rows[static_cast<std::size_t>(c)];
    };
    const auto global = [&](part_t p, vid_t c) {
      return pg.parts[static_cast<std::size_t>(p)].global_ids[static_cast<std::size_t>(local(p, c))];
    };
    std::size_t kept = 0;
    for (part_t p = 0; p < pg.num_parts; ++p) {
      for (int bin = 0; bin < bins; ++bin) {
        for (part_t q = 0; q < pg.num_parts; ++q) {
          const HaloPeerLists& full = plans[static_cast<std::size_t>(p)].peer(bin, q);
          const HaloPeerLists& out = out_plans[static_cast<std::size_t>(p)].peer(bin, q);
          // Equal to the full plan's training entries, in the same order.
          const auto expect = [&](const std::vector<vid_t>& full_list,
                                  const std::vector<vid_t>& out_list) {
            std::vector<vid_t> want, got;
            for (const vid_t v : full_list)
              if (ds.train_mask[static_cast<std::size_t>(
                      pg.parts[static_cast<std::size_t>(p)].global_ids[static_cast<std::size_t>(v)])])
                want.push_back(v);
            for (const vid_t c : out_list) got.push_back(local(p, c));
            EXPECT_EQ(got, want) << "part " << p << " bin " << bin << " peer " << q;
          };
          expect(full.leaf, out.leaf);
          expect(full.root, out.root);
          kept += out.leaf.size();
          // Both ends of each channel between p and q carry the same trees
          // in the same order.
          const HaloPeerLists& peer = out_plans[static_cast<std::size_t>(q)].peer(bin, p);
          ASSERT_EQ(out.leaf.size(), peer.root.size());
          for (std::size_t i = 0; i < out.leaf.size(); ++i)
            EXPECT_EQ(global(p, out.leaf[i]), global(q, peer.root[i]));
          ASSERT_EQ(out.root.size(), peer.leaf.size());
          for (std::size_t i = 0; i < out.root.size(); ++i)
            EXPECT_EQ(global(p, out.root[i]), global(q, peer.leaf[i]));
        }
      }
    }
    EXPECT_GT(kept, 0u) << "the sweep must exercise some training trees";
  }
}

TEST(OutputHaloPlan, Cd0HaloBytesMatchThePlans) {
  const Dataset ds = learnable(1024, 57);
  const PartitionedGraph pg = partitioned(ds, 4);
  for (const int layers : {1, 2, 3}) {
    TrainConfig cfg = dist_config(Algorithm::kCd0, 5);
    cfg.num_layers = layers;
    const DistTrainResult result = train_distributed(ds, pg, cfg);
    EXPECT_EQ(result.total_bytes_sent, planned_halo_bytes(ds, pg, cfg).total())
        << layers << " layers";
  }
}

TEST(OutputHaloPlan, CdrHaloBytesMatchThePlans) {
  // kCache's layer 0 sends for its first 2r epochs only; kLiteral's, like
  // every other layer's, until r epochs before the end. Seven epochs end
  // before kCache's layer 0 settles at 3r - 1 = 8, twelve after.
  const Dataset ds = learnable(1024, 57);
  const PartitionedGraph pg = partitioned(ds, 4);
  for (const StalenessPolicy policy : {StalenessPolicy::kCache, StalenessPolicy::kLiteral})
    for (const int layers : {1, 2, 3})
      for (const int epochs : {7, 12}) {
        TrainConfig cfg = dist_config(Algorithm::kCdR, epochs);
        cfg.num_layers = layers;
        cfg.staleness = policy;
        const DistTrainResult result = train_distributed(ds, pg, cfg);
        EXPECT_EQ(result.total_bytes_sent, planned_halo_bytes(ds, pg, cfg).total())
            << (policy == StalenessPolicy::kCache ? "kCache, " : "kLiteral, ") << layers
            << " layers, " << epochs << " epochs";
      }
}

TEST(OutputHaloPlan, LowPrecisionHalosSendNoActivationMove) {
  // A bf16 or fp16 leaf holds the decoded root->leaf payload, not its root's
  // fp32 total, so no layer is clone-exact: every clone runs its Linear, and
  // the run sends the exchange alone, at two bytes per value. Twelve cd-r
  // epochs run past kCache's layer 0 settling at 3r - 1 = 8.
  const Dataset ds = learnable(1024, 57);
  const PartitionedGraph pg = partitioned(ds, 4);
  for (const HaloPrecision precision : {HaloPrecision::kBf16, HaloPrecision::kFp16})
    for (const Algorithm alg : {Algorithm::kCd0, Algorithm::kCdR}) {
      TrainConfig cfg = dist_config(alg, 12);
      cfg.num_layers = 3;
      cfg.halo_precision = precision;
      const PlannedHaloBytes planned = planned_halo_bytes(ds, pg, cfg);
      ASSERT_EQ(planned.activations, 0u);
      EXPECT_EQ(train_distributed(ds, pg, cfg).total_bytes_sent, planned.exchange)
          << to_string(precision) << (alg == Algorithm::kCd0 ? ", cd-0" : ", cd-r");
    }
}

TEST(Distributed, SplitVerticesOnlyMaskTrainsWithFiniteLosses) {
  // Every training vertex is split, so every loss row's aggregate is
  // completed through the output layer's restricted halo.
  Dataset ds = learnable(1024, 59);
  const PartitionedGraph pg = partitioned(ds, 4);
  std::vector<std::uint8_t> split(static_cast<std::size_t>(ds.num_vertices()), 0);
  for (const LocalPartition& lp : pg.parts)
    for (std::size_t v = 0; v < lp.global_ids.size(); ++v)
      if (lp.is_split[v]) split[static_cast<std::size_t>(lp.global_ids[v])] = 1;
  ASSERT_GT(std::count(split.begin(), split.end(), std::uint8_t{1}), 0);
  ds.train_mask = split;
  for (const Algorithm alg : {Algorithm::kCd0, Algorithm::kCdR}) {
    const DistTrainResult result = train_distributed(ds, pg, dist_config(alg, 8));
    for (const DistEpochRecord& rec : result.epochs) {
      EXPECT_TRUE(std::isfinite(rec.loss)) << to_string(alg);
      EXPECT_GT(rec.loss, 0.0) << to_string(alg);
    }
    EXPECT_LT(result.epochs.back().loss, result.epochs.front().loss) << to_string(alg);
  }
}

TEST(DistTrainResult, MeanSkipsWarmupEpochs) {
  DistTrainResult r;
  r.epochs = {{0, 10.0, 0, 0}, {0, 2.0, 0, 0}, {0, 2.0, 0, 0}};
  EXPECT_NEAR(r.mean_epoch_seconds(1), 2.0, 1e-12);
  EXPECT_NEAR(r.mean_epoch_seconds(0), 14.0 / 3.0, 1e-12);
  EXPECT_EQ(r.mean_epoch_seconds(5), 0.0);
}

}  // namespace
}  // namespace distgnn
