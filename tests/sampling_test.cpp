#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "sampling/distributed_sampled_trainer.hpp"
#include "sampling/minibatch.hpp"
#include "sampling/neighbor_sampler.hpp"
#include "sampling/sampled_trainer.hpp"

namespace distgnn {
namespace {

TEST(NeighborSampler, TakesAllWhenDegreeSmall) {
  EdgeList el;
  el.num_vertices = 5;
  el.add(1, 0);
  el.add(2, 0);
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  Rng rng(1);
  std::vector<vid_t> out;
  sample_neighbors(csr, 0, 10, rng, out);
  EXPECT_EQ(std::multiset<vid_t>(out.begin(), out.end()), (std::multiset<vid_t>{1, 2}));
}

TEST(NeighborSampler, RespectsFanoutAndDistinct) {
  EdgeList el;
  el.num_vertices = 64;
  for (vid_t u = 1; u < 64; ++u) el.add(u, 0);
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<vid_t> out;
    sample_neighbors(csr, 0, 8, rng, out);
    EXPECT_EQ(out.size(), 8u);
    EXPECT_EQ(std::set<vid_t>(out.begin(), out.end()).size(), 8u);  // distinct
    for (const vid_t u : out) {
      EXPECT_GE(u, 1);
      EXPECT_LT(u, 64);
    }
  }
}

TEST(NeighborSampler, CoversAllNeighborsOverTrials) {
  EdgeList el;
  el.num_vertices = 16;
  for (vid_t u = 1; u < 16; ++u) el.add(u, 0);
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  Rng rng(3);
  std::set<vid_t> seen;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<vid_t> out;
    sample_neighbors(csr, 0, 3, rng, out);
    seen.insert(out.begin(), out.end());
  }
  EXPECT_EQ(seen.size(), 15u);
}

TEST(MiniBatch, BlocksHaveDstPrefixInvariant) {
  const EdgeList el = generate_rmat({.num_vertices = 512, .num_edges = 4096, .seed = 5});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  Rng rng(7);
  const std::vector<vid_t> seeds{1, 5, 9, 100};
  const std::vector<int> fanouts{4, 3};  // two layers
  const MiniBatch mb = sample_minibatch(csr, seeds, fanouts, rng);

  ASSERT_EQ(mb.blocks.size(), 2u);
  // Output block's dst == seeds.
  EXPECT_EQ(mb.blocks.back().num_dst, static_cast<vid_t>(seeds.size()));
  // Each block: num_dst <= num_src, col indices in range.
  for (const SampledBlock& b : mb.blocks) {
    EXPECT_LE(b.num_dst, b.num_src);
    for (const vid_t c : b.col) {
      EXPECT_GE(c, 0);
      EXPECT_LT(c, b.num_src);
    }
    // Degrees bounded by fanout is checked per block below.
  }
  // Input-most block feeds from input_vertices.
  EXPECT_EQ(mb.blocks.front().num_src, static_cast<vid_t>(mb.input_vertices.size()));
  // Chaining: block l's num_src == block l-1... (dst of deeper equals src of shallower)
  EXPECT_EQ(mb.blocks[0].num_dst, mb.blocks[1].num_src);
}

TEST(MiniBatch, FanoutBoundsSampledDegrees) {
  const EdgeList el = generate_rmat({.num_vertices = 512, .num_edges = 16384, .seed = 6});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  Rng rng(8);
  const std::vector<vid_t> seeds{0, 1, 2};
  const std::vector<int> fanouts{5, 10, 15};
  const MiniBatch mb = sample_minibatch(csr, seeds, fanouts, rng);
  ASSERT_EQ(mb.blocks.size(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    const SampledBlock& b = mb.blocks[l];
    for (vid_t v = 0; v < b.num_dst; ++v)
      EXPECT_LE(static_cast<int>(b.neighbors(v).size()), fanouts[l]) << "layer " << l;
  }
  EXPECT_GT(mb.total_sampled_edges(), 0);
}

TEST(MiniBatch, MakeBatchesCoversAllVertices) {
  std::vector<vid_t> vertices(103);
  for (std::size_t i = 0; i < vertices.size(); ++i) vertices[i] = static_cast<vid_t>(i);
  Rng rng(9);
  const auto batches = make_batches(vertices, 25, rng);
  EXPECT_EQ(batches.size(), 5u);  // 25*4 + 3
  std::set<vid_t> seen;
  for (const auto& b : batches) seen.insert(b.begin(), b.end());
  EXPECT_EQ(seen.size(), 103u);
  EXPECT_EQ(batches.back().size(), 3u);
}

TEST(SampledTrainer, LossDecreasesOnLearnableData) {
  LearnableSbmParams p;
  p.num_vertices = 1024;
  p.num_classes = 4;
  p.avg_degree = 12;
  p.feature_dim = 16;
  p.feature_noise = 0.8f;
  const Dataset ds = make_learnable_sbm(p);

  SampledTrainConfig cfg;
  cfg.fanouts = {5, 5};
  cfg.batch_size = 128;
  cfg.hidden_dim = 32;
  cfg.lr = 0.2;
  SampledSageTrainer trainer(ds, cfg);
  const double first = trainer.train_epoch().loss;
  double last = first;
  for (int e = 0; e < 8; ++e) last = trainer.train_epoch().loss;
  EXPECT_LT(last, 0.7 * first);
}

TEST(SampledTrainer, EvalAccuracyBeatsChance) {
  LearnableSbmParams p;
  p.num_vertices = 1024;
  p.num_classes = 4;
  p.avg_degree = 12;
  p.feature_dim = 16;
  p.feature_noise = 0.5f;
  const Dataset ds = make_learnable_sbm(p);

  SampledTrainConfig cfg;
  cfg.fanouts = {5, 5};
  cfg.batch_size = 128;
  cfg.hidden_dim = 32;
  cfg.lr = 0.2;
  SampledSageTrainer trainer(ds, cfg);
  for (int e = 0; e < 12; ++e) trainer.train_epoch();
  EXPECT_GT(trainer.evaluate(ds.test_mask), 0.6);  // chance = 0.25
}

TEST(SampledTrainer, RestrictedShardTrainsOnSubsetOnly) {
  LearnableSbmParams p;
  p.num_vertices = 512;
  p.num_classes = 2;
  p.feature_dim = 8;
  const Dataset ds = make_learnable_sbm(p);
  SampledTrainConfig cfg;
  cfg.fanouts = {3, 3};
  cfg.batch_size = 16;
  cfg.hidden_dim = 8;
  SampledSageTrainer trainer(ds, cfg);
  trainer.restrict_train_vertices({0, 1, 2, 3, 4, 5, 6, 7});
  const SampledEpochStats stats = trainer.train_epoch();
  EXPECT_EQ(stats.num_batches, 1);  // 8 vertices / batch 16 -> one batch
}

TEST(DistributedSampled, ConvergesAndBeatsChance) {
  LearnableSbmParams p;
  p.num_vertices = 1024;
  p.num_classes = 4;
  p.avg_degree = 12;
  p.feature_dim = 16;
  p.feature_noise = 0.5f;
  const Dataset ds = make_learnable_sbm(p);

  SampledTrainConfig cfg;
  cfg.fanouts = {5, 5};
  cfg.batch_size = 64;
  cfg.hidden_dim = 32;
  cfg.lr = 0.2;
  const DistSampledResult result =
      train_distributed_sampled(ds, cfg, /*num_ranks=*/4, /*epochs=*/10, /*threads_per_rank=*/1);
  EXPECT_GT(result.test_accuracy, 0.6);  // chance 0.25
  EXPECT_GT(result.sampled_edges_per_epoch, 0);
  EXPECT_GT(result.mean_epoch_seconds, 0.0);
}

TEST(DistributedSampled, SingleRankMatchesLocalTrainerShape) {
  LearnableSbmParams p;
  p.num_vertices = 512;
  p.num_classes = 2;
  p.feature_dim = 8;
  const Dataset ds = make_learnable_sbm(p);
  SampledTrainConfig cfg;
  cfg.fanouts = {3, 3};
  cfg.batch_size = 64;
  cfg.hidden_dim = 8;
  const DistSampledResult result = train_distributed_sampled(ds, cfg, 1, 3, 1);
  EXPECT_TRUE(std::isfinite(result.final_loss));
  EXPECT_GT(result.mean_epoch_seconds, 0.0);
}

// Zero ranks would divide by zero and zero epochs average over nothing:
// both are rejected before any work.
TEST(DistributedSampled, RejectsZeroRanksOrEpochs) {
  LearnableSbmParams p;
  p.num_vertices = 128;
  p.num_classes = 2;
  p.feature_dim = 4;
  const Dataset ds = make_learnable_sbm(p);
  SampledTrainConfig cfg;
  cfg.fanouts = {2};
  cfg.hidden_dim = 4;
  EXPECT_THROW(train_distributed_sampled(ds, cfg, /*num_ranks=*/0, /*epochs=*/1, 1),
               std::invalid_argument);
  EXPECT_THROW(train_distributed_sampled(ds, cfg, /*num_ranks=*/-2, /*epochs=*/1, 1),
               std::invalid_argument);
  EXPECT_THROW(train_distributed_sampled(ds, cfg, /*num_ranks=*/1, /*epochs=*/0, 1),
               std::invalid_argument);
}

TEST(SampledTrainer, ReportsWorkCounters) {
  LearnableSbmParams p;
  p.num_vertices = 256;
  p.num_classes = 2;
  p.feature_dim = 8;
  const Dataset ds = make_learnable_sbm(p);
  SampledTrainConfig cfg;
  cfg.fanouts = {3, 3};
  cfg.batch_size = 64;
  cfg.hidden_dim = 8;
  SampledSageTrainer trainer(ds, cfg);
  const SampledEpochStats stats = trainer.train_epoch();
  EXPECT_GT(stats.num_batches, 0);
  EXPECT_GT(stats.sampled_edges, 0);
  EXPECT_GT(stats.seconds, 0.0);
}

}  // namespace
}  // namespace distgnn
