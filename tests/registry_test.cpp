// Multi-tenant ModelRegistry: three model families (SAGE, GAT, RGCN) served
// from one process, independent hot-swap with bitwise-stable neighbours,
// weighted-fair convergence under saturation, per-tenant budget shedding,
// and the RGCN checkpoint/serve path pinned bitwise against the trainer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/rgcn_trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/hetero.hpp"
#include "nn/serialize.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/replica_group.hpp"
#include "serve/router.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

Dataset make_homo_dataset() {
  LearnableSbmParams params;
  params.num_vertices = 512;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  return make_learnable_sbm(params);
}

HeteroDataset make_hetero() {
  HeteroDatasetParams params;
  params.num_vertices = 256;
  params.num_classes = 4;
  params.num_edge_types = 3;
  params.avg_degree = 6;
  params.feature_dim = 8;
  params.seed = 19;
  return make_hetero_dataset(params);
}

ModelSpec sage_spec(const Dataset& dataset) {
  ModelSpec spec;
  spec.kind = ModelKind::kSage;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;
  return spec;
}

ServeConfig small_config() {
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  return cfg;
}

/// Fanout covering every in-neighbour of every vertex: sampling keeps the
/// full CSR adjacency in block order, the regime where served RGCN answers
/// equal the full-graph trainer forward bitwise.
int full_fanout(const Dataset& dataset) {
  const CsrMatrix& csr = dataset.graph.in_csr();
  eid_t max_deg = 1;
  for (vid_t v = 0; v < csr.num_rows(); ++v) max_deg = std::max(max_deg, csr.degree(v));
  return static_cast<int>(max_deg);
}

TEST(ModelRegistry, ServesThreeModelFamiliesFromOneProcess) {
  const Dataset homo = make_homo_dataset();
  const HeteroDataset hetero = make_hetero();
  const Dataset hetero_ds = hetero_to_dataset(hetero);

  ModelRegistry registry;
  TenantSlo a;
  a.name = "sage";
  TenantSlo b;
  b.name = "gat";
  TenantSlo c;
  c.name = "rgcn";
  const tenant_t ta = registry.add_server(a, homo, small_config());
  const tenant_t tb = registry.add_server(b, homo, small_config());
  const tenant_t tc = registry.add_server(c, hetero_ds, small_config());
  EXPECT_EQ(registry.num_models(), 3);
  EXPECT_EQ(registry.find("gat"), tb);
  EXPECT_EQ(registry.find("nope"), std::nullopt);
  EXPECT_THROW(registry.add_server(a, homo, small_config()), std::invalid_argument);  // dup name
  EXPECT_THROW(registry.backend(99), std::out_of_range);

  ModelSpec gat = sage_spec(homo);
  gat.kind = ModelKind::kGat;
  ModelSpec rgcn;
  rgcn.kind = ModelKind::kRgcn;
  rgcn.feature_dim = hetero_ds.feature_dim();
  rgcn.hidden_dim = 8;
  rgcn.num_classes = hetero_ds.num_classes;
  rgcn.num_layers = 2;
  rgcn.num_relations = hetero_ds.num_edge_types;
  registry.publish(ta, ModelSnapshot::random(sage_spec(homo), 1, 1));
  registry.publish(tb, ModelSnapshot::random(gat, 2, 1));
  registry.publish(tc, ModelSnapshot::random(rgcn, 3, 1));
  registry.start();

  // Every family answers, and the tenant id rides into the result.
  for (const tenant_t t : {ta, tb, tc}) {
    const InferResult result = registry.infer_sync(t, /*vertex=*/7);
    EXPECT_FALSE(result.logits.empty()) << "tenant " << t;
    EXPECT_EQ(result.tenant, t);
  }

  const BackendStats stats = registry.stats();
  registry.stop();
  ASSERT_EQ(stats.children.size(), 3u);
  EXPECT_EQ(stats.children[0].label, "sage");
  EXPECT_EQ(stats.children[1].label, "gat");
  EXPECT_EQ(stats.children[2].label, "rgcn");
  ASSERT_EQ(stats.tenants.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_EQ(stats.tenants[t].submitted, 1u);
    EXPECT_EQ(stats.tenants[t].completed, 1u);
    EXPECT_EQ(stats.tenants[t].shed, 0u);
  }
}

TEST(ModelRegistry, HotSwapOfOneTenantLeavesNeighbourBitwiseStable) {
  const Dataset dataset = make_homo_dataset();
  const ModelSpec spec = sage_spec(dataset);
  const auto a1 = ModelSnapshot::random(spec, /*seed=*/100, /*version=*/1);
  const auto a2 = ModelSnapshot::random(spec, /*seed=*/200, /*version=*/2);
  const auto b1 = ModelSnapshot::random(spec, /*seed=*/300, /*version=*/1);

  std::vector<vid_t> probe;
  for (vid_t v = 0; v < 32; ++v) probe.push_back((v * 37) % dataset.num_vertices());

  // B's reference answers from a standalone server over the same snapshot.
  std::vector<std::vector<real_t>> expected_b;
  {
    InferenceServer single(dataset, small_config());
    single.publish(b1);
    single.start();
    for (const vid_t v : probe) expected_b.push_back(single.infer_sync(v).logits);
    single.stop();
  }

  ModelRegistry registry;
  TenantSlo sa;
  sa.name = "a";
  TenantSlo sb;
  sb.name = "b";
  const tenant_t ta = registry.add_server(sa, dataset, small_config());
  const tenant_t tb = registry.add_server(sb, dataset, small_config());
  registry.publish(ta, a1);
  registry.publish(tb, b1);
  registry.start();

  // Keep B's lane busy while A hot-swaps: submit the whole probe batch
  // asynchronously, swap A mid-flight, then collect.
  std::vector<std::vector<real_t>> got_b(probe.size());
  std::vector<std::uint64_t> versions_b(probe.size());
  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < probe.size(); ++i)
    ASSERT_TRUE(registry.submit(tb, probe[i], [&, i](InferResult&& r) {
      got_b[i] = std::move(r.logits);
      versions_b[i] = r.snapshot_version;
      done.fetch_add(1);
    }));
  registry.publish(ta, a2);  // independent hot-swap: only A's entry barriers
  registry.backend(tb).drain();
  ASSERT_EQ(done.load(), probe.size());

  // B's in-flight answers: bitwise the b1 model, version untouched by A's
  // publish.
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(got_b[i], expected_b[i]) << "request " << i;
    EXPECT_EQ(versions_b[i], 1u) << "request " << i;
  }
  // A really swapped (and serves v2), B still serves v1.
  EXPECT_EQ(registry.backend(ta).snapshot()->version(), 2u);
  EXPECT_EQ(registry.backend(tb).snapshot()->version(), 1u);
  EXPECT_EQ(registry.infer_sync(ta, probe[0]).snapshot_version, 2u);
  registry.stop();
}

TEST(Router, WeightedFairSharesConvergeToSloWeightsUnderSaturation) {
  const Dataset dataset = make_homo_dataset();
  ReplicaGroup group(dataset, small_config(), /*num_replicas=*/1);
  group.publish(ModelSnapshot::random(sage_spec(dataset), 1, 1));
  group.start();

  AdmissionConfig admission;
  admission.shed_deadlines = false;
  admission.low_priority_depth = 0;  // fairness only — nothing sheds
  TenantSlo heavy;
  heavy.name = "heavy";
  heavy.weight = 2.0;
  TenantSlo light;
  light.name = "light";
  light.weight = 1.0;
  admission.tenants = {heavy, light};
  admission.dispatch_window = 2;  // force staging so WRR decides the order
  Router router(group, RoutePolicy::kRoundRobin, admission);
  ASSERT_TRUE(router.tenant_mode());

  // Both tenants offer far above capacity; while both lanes are backlogged
  // the dispatch shares follow the 2:1 weights. Sample the lanes the moment
  // the heavy stream finishes (the light lane is still saturated then).
  const std::size_t n = 240;
  const auto make_load = [&](tenant_t tenant, std::uint64_t seed) {
    LoadStream load;
    load.arrivals.process = ArrivalProcess::kPoisson;
    load.arrivals.rate = 50000.0;  // >> capacity: arrival pacing is a non-factor
    load.arrivals.seed = seed;
    load.num_requests = n;
    load.seed = seed;
    load.tenant = tenant;
    return load;
  };
  RouterStats at_heavy_done;
  std::thread heavy_thread([&] {
    (void)run_open_loop(make_load(0, 11), group, submit_to(router));
    at_heavy_done = router.stats();
  });
  (void)run_open_loop(make_load(1, 13), group, submit_to(router));
  heavy_thread.join();
  group.stop();

  ASSERT_EQ(at_heavy_done.tenants.size(), 2u);
  const double served_heavy = static_cast<double>(at_heavy_done.tenants[0].completed);
  const double served_light = static_cast<double>(at_heavy_done.tenants[1].completed);
  ASSERT_GT(served_light, 0.0);
  const double ratio = served_heavy / served_light;
  EXPECT_GE(ratio, 1.4) << "heavy " << served_heavy << " light " << served_light;
  EXPECT_LE(ratio, 3.0) << "heavy " << served_heavy << " light " << served_light;
  // Nothing shed: fairness reorders, it never drops.
  EXPECT_EQ(router.stats().shed(), 0u);
}

TEST(ModelRegistry, BudgetShedsTheBurstingTenantOnly) {
  const Dataset dataset = make_homo_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), 1, 1);

  ModelRegistry registry;
  TenantSlo sa;
  sa.name = "steady";  // unlimited budget
  TenantSlo sb;
  sb.name = "bursty";
  sb.rate_limit = 200.0;  // requests/s — far below the offered burst
  sb.burst = 8;
  const tenant_t ta = registry.add_server(sa, dataset, small_config());
  const tenant_t tb = registry.add_server(sb, dataset, small_config());
  registry.publish(ta, snapshot);
  registry.publish(tb, snapshot);
  registry.start();

  // B floods (no pacing at all); A trickles politely.
  std::atomic<std::size_t> done{0};
  std::size_t accepted_b = 0;
  for (int i = 0; i < 400; ++i)
    if (registry.submit(tb, static_cast<vid_t>(i % dataset.num_vertices()),
                        [&](InferResult&&) { done.fetch_add(1); }))
      ++accepted_b;
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(registry.submit(ta, static_cast<vid_t>(i),
                                [&](InferResult&&) { done.fetch_add(1); }));
  registry.backend(ta).drain();
  registry.backend(tb).drain();

  const BackendStats stats = registry.stats();
  registry.stop();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.tenants[static_cast<std::size_t>(ta)].shed, 0u);
  EXPECT_GT(stats.tenants[static_cast<std::size_t>(tb)].shed, 0u);
  EXPECT_EQ(stats.tenants[static_cast<std::size_t>(tb)].submitted, 400u);
  // The bucket admits at most burst + a sliver of refill out of the flood.
  EXPECT_LT(accepted_b, 40u);
  EXPECT_EQ(done.load(), accepted_b + 50);
}

TEST(RgcnServing, CheckpointRoundTripsBitwise) {
  const HeteroDataset hetero = make_hetero();
  TrainConfig config;
  config.num_layers = 2;
  config.hidden_dim = 8;
  config.seed = 3;
  config.ap_mode = ApMode::kBaseline;
  RgcnTrainer trainer(hetero, config);

  const std::string path = ::testing::TempDir() + "distgnn_rgcn_roundtrip.ckpt";
  auto params = trainer.params();
  save_checkpoint(params, path);

  ModelSpec spec;
  spec.kind = ModelKind::kRgcn;
  spec.feature_dim = hetero.feature_dim();
  spec.hidden_dim = config.hidden_dim;
  spec.num_classes = hetero.num_classes;
  spec.num_layers = config.num_layers;
  spec.num_relations = hetero.graph.num_edge_types();
  const auto snapshot = ModelSnapshot::from_checkpoint(spec, path, /*version=*/4);
  EXPECT_EQ(snapshot->version(), 4u);

  // save -> reload and flatten -> from_flat both reproduce the exact bytes.
  const std::string path2 = ::testing::TempDir() + "distgnn_rgcn_roundtrip2.ckpt";
  snapshot->save(path2);
  const auto reloaded = ModelSnapshot::from_checkpoint(spec, path2, /*version=*/5);
  EXPECT_EQ(reloaded->flatten(), snapshot->flatten());
  const auto from_flat = ModelSnapshot::from_flat(spec, snapshot->flatten(), /*version=*/6);
  EXPECT_EQ(from_flat->flatten(), snapshot->flatten());
  EXPECT_EQ(snapshot->num_parameters(), snapshot->flatten().size());
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(RgcnServing, FullFanoutServedLogitsMatchTrainerBitwise) {
  const HeteroDataset hetero = make_hetero();
  const Dataset dataset = hetero_to_dataset(hetero);

  TrainConfig config;
  config.num_layers = 2;
  config.hidden_dim = 8;
  config.seed = 3;
  config.ap_mode = ApMode::kBaseline;
  RgcnTrainer trainer(hetero, config);
  (void)trainer.evaluate(hetero.val_mask);  // runs the full-graph forward
  const ConstMatrixView train_logits = trainer.logits();

  const std::string path = ::testing::TempDir() + "distgnn_rgcn_serve.ckpt";
  auto params = trainer.params();
  save_checkpoint(params, path);
  ModelSpec spec;
  spec.kind = ModelKind::kRgcn;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = config.hidden_dim;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = config.num_layers;
  spec.num_relations = dataset.num_edge_types;
  const auto snapshot = ModelSnapshot::from_checkpoint(spec, path, /*version=*/1);
  std::remove(path.c_str());

  // Full fanout: sampling degenerates to the whole adjacency in CSR order,
  // so the served forward runs the trainer's exact per-row float program.
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  const int fanout = full_fanout(dataset);
  cfg.fanouts = {fanout, fanout};
  InferenceServer server(dataset, cfg);
  server.publish(snapshot);
  server.start();
  for (vid_t v = 0; v < dataset.num_vertices(); v += 17) {
    const InferResult result = server.infer_sync(v);
    ASSERT_EQ(result.logits.size(), static_cast<std::size_t>(dataset.num_classes));
    for (std::size_t j = 0; j < result.logits.size(); ++j)
      EXPECT_EQ(result.logits[j], train_logits.at(static_cast<std::size_t>(v), j))
          << "vertex " << v << " class " << j;
  }
  server.stop();
}

TEST(RgcnServing, PublishValidatesRelationCountAndEmbedForward) {
  const HeteroDataset hetero = make_hetero();
  const Dataset dataset = hetero_to_dataset(hetero);
  ModelSpec spec;
  spec.kind = ModelKind::kRgcn;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 8;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;
  spec.num_relations = dataset.num_edge_types + 1;  // mismatch

  InferenceServer server(dataset, small_config());
  EXPECT_THROW(server.publish(ModelSnapshot::random(spec, 1, 1)), std::invalid_argument);

  spec.num_relations = dataset.num_edge_types;
  ServeConfig embed = small_config();
  embed.embed_forward = true;
  InferenceServer embed_server(dataset, embed);
  EXPECT_THROW(embed_server.publish(ModelSnapshot::random(spec, 1, 1)), std::invalid_argument);
}

}  // namespace
}  // namespace distgnn
