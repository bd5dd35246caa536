// Edge cases and failure injection across the stack: degenerate graphs,
// pathological partition shapes, bad configurations, and cross-thread-count
// determinism of the kernels.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/parallel.hpp"

#include "core/distributed_trainer.hpp"
#include "core/single_socket_trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "kernels/aggregate.hpp"
#include "partition/halo_plan.hpp"
#include "partition/libra.hpp"
#include "partition/partition_setup.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

TEST(EdgeCase, EmptyGraphAggregates) {
  EdgeList el;
  el.num_vertices = 8;  // no edges at all
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  DenseMatrix fV(8, 4, 1.0f), fO(8, 4, 0.0f);
  ApConfig cfg;
  cfg.num_blocks = 4;
  aggregate(csr, fV.cview(), {}, fO.view(), cfg);
  for (std::size_t i = 0; i < fO.size(); ++i) EXPECT_EQ(fO.data()[i], 0.0f);
}

TEST(EdgeCase, SingleVertexGraph) {
  EdgeList el;
  el.num_vertices = 1;
  const Graph g(el);
  EXPECT_EQ(g.in_csr().num_rows(), 1);
  EXPECT_EQ(g.in_csr().degree(0), 0);
  EXPECT_EQ(g.avg_degree(), 0.0);
}

TEST(EdgeCase, SelfLoopsAggregateToThemselves) {
  EdgeList el;
  el.num_vertices = 3;
  el.add(1, 1);  // self loop
  el.add(0, 1);
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  DenseMatrix fV(3, 2);
  fV.at(0, 0) = 1;
  fV.at(1, 0) = 10;
  DenseMatrix fO(3, 2, 0);
  ApConfig cfg;
  aggregate(csr, fV.cview(), {}, fO.view(), cfg);
  EXPECT_FLOAT_EQ(fO.at(1, 0), 11.0f);  // self + neighbour
}

TEST(EdgeCase, StarGraphHubAggregation) {
  // One hub with 999 in-edges: stresses the power-law path of dynamic
  // scheduling (one row dominating the work).
  EdgeList el;
  el.num_vertices = 1000;
  for (vid_t u = 1; u < 1000; ++u) el.add(u, 0);
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  DenseMatrix fV(1000, 3, 1.0f), fO(1000, 3, 0.0f);
  ApConfig cfg;
  cfg.num_blocks = 8;
  aggregate(csr, fV.cview(), {}, fO.view(), cfg);
  EXPECT_FLOAT_EQ(fO.at(0, 0), 999.0f);
  EXPECT_FLOAT_EQ(fO.at(1, 0), 0.0f);
}

TEST(EdgeCase, AggregationDeterministicAcrossThreadCounts) {
  // Sum order within a row is fixed by the CSR, so results are bitwise
  // identical regardless of the OpenMP thread count.
  const EdgeList el = generate_rmat({.num_vertices = 512, .num_edges = 4096, .seed = 3});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  Rng rng(4);
  DenseMatrix fV(512, 9);
  for (std::size_t i = 0; i < fV.size(); ++i) fV.data()[i] = rng.uniform(-1, 1);

  const int saved = par::max_threads();
  DenseMatrix ref(512, 9, 0);
  ApConfig cfg;
  cfg.num_blocks = 4;
  par::set_num_threads(1);
  aggregate(csr, fV.cview(), {}, ref.view(), cfg);
  for (const int threads : {2, 4, 8}) {
    par::set_num_threads(threads);
    DenseMatrix out(512, 9, 0);
    aggregate(csr, fV.cview(), {}, out.view(), cfg);
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out.data()[i], ref.data()[i]) << threads << " threads, flat " << i;
  }
  par::set_num_threads(saved);
}

TEST(EdgeCase, PartitionWithMorePartsThanEdges) {
  EdgeList el;
  el.num_vertices = 4;
  el.add(0, 1);
  el.add(2, 3);
  const EdgePartition ep = partition_libra(el, 8);
  const PartitionedGraph pg = build_partitions(el, ep, 1);
  EXPECT_EQ(pg.num_parts, 8);
  eid_t total = 0;
  for (const auto& lp : pg.parts) total += lp.edges.num_edges();
  EXPECT_EQ(total, 2);
  // Empty partitions get empty halo plans, not crashes; no vertex is split,
  // so every list is empty.
  const auto plans = build_halo_plans(pg, 3);
  EXPECT_EQ(plans.size(), 8u);
  for (const HaloPlan& plan : plans)
    for (int b = 0; b < plan.num_bins; ++b)
      for (part_t q = 0; q < plan.num_parts; ++q) {
        EXPECT_TRUE(plan.peer(b, q).leaf.empty());
        EXPECT_TRUE(plan.peer(b, q).root.empty());
      }
}

TEST(EdgeCase, DistributedTrainingWithEmptyPartition) {
  // 8 partitions of a 64-vertex graph: some ranks may own almost nothing;
  // the collectives must still line up.
  LearnableSbmParams p;
  p.num_vertices = 64;
  p.num_classes = 2;
  p.avg_degree = 4;
  p.feature_dim = 4;
  const Dataset ds = make_learnable_sbm(p);
  const PartitionedGraph pg =
      build_partitions(ds.graph.coo(), partition_libra(ds.graph.coo(), 8), 1);
  TrainConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden_dim = 4;
  cfg.epochs = 3;
  cfg.algorithm = Algorithm::kCd0;
  cfg.threads_per_rank = 1;
  const DistTrainResult result = train_distributed(ds, pg, cfg);
  EXPECT_EQ(result.epochs.size(), 3u);
  for (const auto& rec : result.epochs) EXPECT_TRUE(std::isfinite(rec.loss));
}

TEST(EdgeCase, DelayLargerThanEpochCount) {
  // r = 50 with only 5 epochs: no message ever matures; training must still
  // run (pure-local behaviour) and leave the mailboxes consistent.
  LearnableSbmParams p;
  p.num_vertices = 256;
  p.num_classes = 2;
  p.feature_dim = 8;
  const Dataset ds = make_learnable_sbm(p);
  const PartitionedGraph pg =
      build_partitions(ds.graph.coo(), partition_libra(ds.graph.coo(), 2), 1);
  TrainConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden_dim = 8;
  cfg.epochs = 5;
  cfg.algorithm = Algorithm::kCdR;
  cfg.delay = 50;
  cfg.threads_per_rank = 1;
  const DistTrainResult result = train_distributed(ds, pg, cfg);
  EXPECT_TRUE(std::isfinite(result.epochs.back().loss));
}

TEST(EdgeCase, DelayAboveTheHaloTagBinsRejectedBeforeAnyRankStarts) {
  // Each layer's halo tags have 1024 bin slots: with r > 1024, bin 1024 of
  // layer l would share a tag with bin 0 of layer l + 1. Over no partitions
  // no rank can start, so the delay's own error shows the check runs first.
  const Dataset empty;
  const PartitionedGraph no_parts;
  TrainConfig cfg;
  cfg.algorithm = Algorithm::kCdR;
  for (const int delay : {1025, 4096}) {
    cfg.delay = delay;
    try {
      train_distributed(empty, no_parts, cfg);
      ADD_FAILURE() << "delay " << delay << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("delay <= 1024"), std::string::npos) << e.what();
    }
  }

  // r = 1024 fits.
  LearnableSbmParams p;
  p.num_vertices = 256;
  p.num_classes = 2;
  p.feature_dim = 8;
  const Dataset ds = make_learnable_sbm(p);
  const PartitionedGraph pg =
      build_partitions(ds.graph.coo(), partition_libra(ds.graph.coo(), 2), 1);
  cfg.num_layers = 2;
  cfg.hidden_dim = 8;
  cfg.epochs = 2;
  cfg.delay = 1024;
  cfg.threads_per_rank = 1;
  EXPECT_TRUE(std::isfinite(train_distributed(ds, pg, cfg).epochs.back().loss));
}

TEST(EdgeCase, OneLayerModel) {
  LearnableSbmParams p;
  p.num_vertices = 256;
  p.num_classes = 4;
  p.feature_dim = 8;
  const Dataset ds = make_learnable_sbm(p);
  TrainConfig cfg;
  cfg.num_layers = 1;  // logits straight from the aggregation
  cfg.hidden_dim = 8;
  SingleSocketTrainer trainer(ds, cfg);
  const double first = trainer.train_epoch().loss;
  for (int e = 0; e < 20; ++e) trainer.train_epoch();
  EXPECT_LT(trainer.train_epoch().loss, first);
}

TEST(EdgeCase, ZeroLayerModelRejected) {
  EXPECT_THROW(SageModel(4, 4, 2, 0, 1), std::invalid_argument);
}

TEST(EdgeCase, DatasetScaleFloorsAtMinimumSize) {
  const Dataset ds = make_dataset("am-sim", 1e-9);
  EXPECT_GE(ds.num_vertices(), 64);
}

TEST(EdgeCase, BadScaleRejected) {
  EXPECT_THROW(make_dataset("am-sim", 0.0), std::invalid_argument);
  EXPECT_THROW(make_dataset("am-sim", -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace distgnn
