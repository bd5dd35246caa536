// Replicated serving tier: bitwise equivalence with single-server answers,
// version-barriered group publication, routing policy behaviour, deadline /
// priority admission control, and the MMPP shed-vs-no-shed tail comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "comm/world.hpp"
#include "graph/datasets.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/replica_group.hpp"
#include "serve/router.hpp"
#include "serve/traffic_gen.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

Dataset make_replica_dataset() {
  LearnableSbmParams params;
  params.num_vertices = 512;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  return make_learnable_sbm(params);
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

ServeConfig replica_config() {
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  return cfg;
}

RequestMeta meta_of(ServeClock::time_point deadline, Priority priority) {
  return RequestMeta{deadline, priority, kDefaultTenant, nullptr};
}

// ---------------------------------------------------------------- equality

TEST(ReplicaGroup, RouterAnswersAreBitwiseEqualToSingleServer) {
  const Dataset dataset = make_replica_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  const ServeConfig cfg = replica_config();

  std::vector<vid_t> vertices;
  for (vid_t v = 0; v < 30; ++v)
    vertices.push_back((v * 37) % static_cast<vid_t>(dataset.num_vertices()));

  InferenceServer single(dataset, cfg);
  single.publish(snapshot);
  single.start();
  std::vector<std::vector<real_t>> expected;
  for (const vid_t v : vertices) expected.push_back(single.infer_sync(v).logits);
  single.stop();

  for (const RoutePolicy policy :
       {RoutePolicy::kRoundRobin, RoutePolicy::kLeastOutstanding, RoutePolicy::kPowerOfTwo}) {
    ReplicaGroup group(dataset, cfg, /*num_replicas=*/3);
    group.publish(snapshot);
    group.start();
    Router router(group, policy);
    const auto results = router.infer_batch(vertices);
    group.stop();

    ASSERT_EQ(results.size(), vertices.size());
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.admitted, vertices.size());  // no deadlines -> nothing shed
    EXPECT_EQ(stats.shed(), 0u);
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      ASSERT_TRUE(results[i].has_value()) << "request " << i;
      EXPECT_EQ(results[i]->logits, expected[i])
          << route_policy_name(policy) << " request " << i;
      EXPECT_EQ(results[i]->snapshot_version, 1u);
    }
  }
}

// ------------------------------------------------------------- group publish

TEST(ReplicaGroup, GroupPublishHotSwapsEveryReplica) {
  const Dataset dataset = make_replica_dataset();
  const ModelSpec spec = sage_spec(dataset);
  const auto v1 = ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1);
  const auto v2 = ModelSnapshot::random(spec, /*seed=*/2, /*version=*/2);

  ReplicaGroup group(dataset, replica_config(), 3);
  group.publish(v1);
  EXPECT_EQ(group.version(), 1u);
  group.publish(v2);
  EXPECT_EQ(group.version(), 2u);
  EXPECT_EQ(group.publishes(), 2u);
  for (int r = 0; r < group.num_replicas(); ++r)
    EXPECT_EQ(group.replica(r).snapshot()->version(), 2u) << "replica " << r;
}

TEST(ReplicaGroup, VersionBarrierNeverMixesVersionsWithinABatch) {
  const Dataset dataset = make_replica_dataset();
  const ModelSpec spec = sage_spec(dataset);
  const auto snap_a = ModelSnapshot::random(spec, /*seed=*/100, /*version=*/1);
  const auto snap_b = ModelSnapshot::random(spec, /*seed=*/200, /*version=*/2);

  ServeConfig cfg = replica_config();
  cfg.num_workers = 2;
  ReplicaGroup group(dataset, cfg, 2);
  group.publish(snap_a);
  group.start();
  Router router(group, RoutePolicy::kRoundRobin);

  std::atomic<int> mixed_batches{0};
  std::atomic<bool> publishing{true};
  std::thread publisher([&] {
    for (int i = 0; i < 30; ++i) {
      group.publish(i % 2 == 0 ? snap_b : snap_a);
      std::this_thread::yield();
    }
    publishing.store(false);
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      std::vector<vid_t> batch;
      for (vid_t i = 0; i < 8; ++i)
        batch.push_back((static_cast<vid_t>(c) * 131 + i * 17) %
                        static_cast<vid_t>(dataset.num_vertices()));
      for (int iter = 0; iter < 20; ++iter) {
        const auto results = router.infer_batch(batch);
        std::uint64_t version = 0;
        bool mixed = false;
        for (const auto& r : results) {
          if (!r.has_value()) continue;
          if (version == 0) version = r->snapshot_version;
          mixed = mixed || r->snapshot_version != version;
        }
        if (mixed) mixed_batches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  publisher.join();
  group.stop();
  EXPECT_EQ(mixed_batches.load(), 0);
  EXPECT_EQ(group.publishes(), 31u);
}

// ----------------------------------------------------------------- routing

TEST(Router, ParsePolicyNamesAndRejectTypos) {
  EXPECT_EQ(parse_route_policy("round-robin"), RoutePolicy::kRoundRobin);
  EXPECT_EQ(parse_route_policy("rr"), RoutePolicy::kRoundRobin);
  EXPECT_EQ(parse_route_policy("least-outstanding"), RoutePolicy::kLeastOutstanding);
  EXPECT_EQ(parse_route_policy("p2c"), RoutePolicy::kPowerOfTwo);
  EXPECT_EQ(route_policy_name(RoutePolicy::kPowerOfTwo), "p2c");
  EXPECT_THROW(parse_route_policy("p2"), std::invalid_argument);
  EXPECT_THROW(parse_route_policy(""), std::invalid_argument);
}

TEST(Router, RoundRobinSpreadsExactlyEvenly) {
  const Dataset dataset = make_replica_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ReplicaGroup group(dataset, replica_config(), 3);
  group.publish(snapshot);
  group.start();
  Router router(group, RoutePolicy::kRoundRobin);

  std::vector<vid_t> vertices(30);
  for (std::size_t i = 0; i < vertices.size(); ++i) vertices[i] = static_cast<vid_t>(i);
  (void)router.infer_batch(vertices);
  group.stop();

  const RouterStats stats = router.stats();
  ASSERT_EQ(stats.admitted_per_replica.size(), 3u);
  for (const std::uint64_t n : stats.admitted_per_replica) EXPECT_EQ(n, 10u);
}

TEST(Router, DepthAwarePoliciesUseEveryReplica) {
  const Dataset dataset = make_replica_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  for (const RoutePolicy policy :
       {RoutePolicy::kLeastOutstanding, RoutePolicy::kPowerOfTwo}) {
    ReplicaGroup group(dataset, replica_config(), 3);
    group.publish(snapshot);
    group.start();
    Router router(group, policy);
    std::vector<vid_t> vertices(120);
    for (std::size_t i = 0; i < vertices.size(); ++i)
      vertices[i] = static_cast<vid_t>((i * 13) % dataset.num_vertices());
    (void)router.infer_batch(vertices);
    group.stop();

    const RouterStats stats = router.stats();
    std::uint64_t total = 0;
    for (const std::uint64_t n : stats.admitted_per_replica) {
      EXPECT_GT(n, 0u) << route_policy_name(policy);
      total += n;
    }
    EXPECT_EQ(total, vertices.size());
  }
}

TEST(Router, OutOfRangeVertexThrowsWithoutWedgingPublish) {
  const Dataset dataset = make_replica_dataset();
  const ModelSpec spec = sage_spec(dataset);
  const auto v1 = ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1);
  const auto v2 = ModelSnapshot::random(spec, /*seed=*/2, /*version=*/2);
  ReplicaGroup group(dataset, replica_config(), 2);
  group.publish(v1);
  group.start();
  Router router(group, RoutePolicy::kLeastOutstanding);

  EXPECT_THROW(router.submit(dataset.num_vertices(), [](InferResult&&) {}), std::out_of_range);
  EXPECT_THROW(router.infer_batch(std::vector<vid_t>{0, -1}), std::out_of_range);

  // A leaked admission slot would deadlock this publish forever.
  group.publish(v2);
  EXPECT_EQ(group.version(), 2u);
  const auto results = router.infer_batch(std::vector<vid_t>{3, 4});
  group.stop();
  for (const auto& r : results) {
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->snapshot_version, 2u);
  }
}

TEST(Router, StatsSinceSubtractsWarmupBaseline) {
  const Dataset dataset = make_replica_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ReplicaGroup group(dataset, replica_config(), 2);
  group.publish(snapshot);
  group.start();
  Router router(group, RoutePolicy::kRoundRobin);

  (void)router.infer_batch(std::vector<vid_t>{1, 2, 3});
  const RouterStats warmed = router.stats();
  (void)router.infer_batch(std::vector<vid_t>{4, 5, 6, 7});
  group.stop();

  const RouterStats delta = router.stats().since(warmed);
  EXPECT_EQ(delta.submitted, 4u);
  EXPECT_EQ(delta.admitted, 4u);
  EXPECT_EQ(delta.completed, 4u);
  EXPECT_EQ(delta.shed(), 0u);
  ASSERT_EQ(delta.admitted_per_replica.size(), 2u);
  EXPECT_EQ(delta.admitted_per_replica[0] + delta.admitted_per_replica[1], 4u);
}

// ---------------------------------------------------------------- admission

TEST(Admission, ExpiredDeadlineIsAlwaysShed) {
  const Dataset dataset = make_replica_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ReplicaGroup group(dataset, replica_config(), 2);
  group.publish(snapshot);
  group.start();
  Router router(group, RoutePolicy::kRoundRobin);

  const auto expired = ServeClock::now() - std::chrono::milliseconds(1);
  EXPECT_FALSE(router.submit(0, meta_of(expired, Priority::kHigh), [](InferResult&&) { FAIL(); }));
  group.stop();
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.admitted, 0u);
}

TEST(Admission, IdleGroupAdmitsGenerousDeadlinesAndNoDeadlineIsNeverShed) {
  const Dataset dataset = make_replica_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ReplicaGroup group(dataset, replica_config(), 2);
  group.publish(snapshot);
  group.start();
  Router router(group, RoutePolicy::kLeastOutstanding);

  // Warm the service-rate estimate so the deadline path actually evaluates.
  std::vector<vid_t> warmup(16);
  for (std::size_t i = 0; i < warmup.size(); ++i) warmup[i] = static_cast<vid_t>(i * 7);
  (void)router.infer_batch(warmup);

  const auto generous = ServeClock::now() + std::chrono::seconds(30);
  const auto results =
      router.infer_batch(std::vector<vid_t>{1, 2, 3, 4}, meta_of(generous, Priority::kHigh));
  for (const auto& r : results) EXPECT_TRUE(r.has_value());
  (void)router.infer_batch(std::vector<vid_t>{5, 6});  // no deadline
  group.stop();
  EXPECT_EQ(router.stats().shed(), 0u);
}

TEST(Admission, BacklogShedsOnlyUnmeetableDeadlines) {
  const Dataset dataset = make_replica_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ServeConfig cfg = replica_config();
  cfg.fanouts = {10, 10};  // heavier service so the backlog estimate is solid
  ReplicaGroup group(dataset, cfg, 1);
  group.publish(snapshot);
  group.start();
  Router router(group, RoutePolicy::kRoundRobin);

  std::vector<vid_t> warmup(32);
  for (std::size_t i = 0; i < warmup.size(); ++i)
    warmup[i] = static_cast<vid_t>((i * 13) % dataset.num_vertices());
  (void)router.infer_batch(warmup);
  const double svc = group.replica(0).mean_service_seconds();
  ASSERT_GT(svc, 0.0);

  // Build a deep no-deadline backlog, then probe with one deadline that the
  // backlog makes unmeetable and one far beyond any plausible drain time.
  std::atomic<int> drained{0};
  const int backlog = 400;
  for (int i = 0; i < backlog; ++i)
    ASSERT_TRUE(router.submit(static_cast<vid_t>(i % dataset.num_vertices()),
                              [&](InferResult&&) { drained.fetch_add(1); }));

  const auto tight = ServeClock::now() +
                     std::chrono::duration_cast<ServeClock::duration>(
                         std::chrono::duration<double>(svc * 4));  // << backlog drain time
  EXPECT_FALSE(router.submit(7, meta_of(tight, Priority::kHigh), [](InferResult&&) { FAIL(); }));

  std::atomic<bool> generous_done{false};
  const auto generous = ServeClock::now() + std::chrono::seconds(60);
  EXPECT_TRUE(router.submit(7, meta_of(generous, Priority::kHigh),
                            [&](InferResult&&) { generous_done.store(true); }));

  while (drained.load() < backlog || !generous_done.load()) std::this_thread::yield();
  group.stop();
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.shed_deadline, 1u);
  EXPECT_EQ(stats.shed_queue_full, 0u);
}

TEST(Admission, LowPriorityShedsFirstUnderBacklog) {
  const Dataset dataset = make_replica_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ServeConfig cfg = replica_config();
  cfg.fanouts = {10, 10};
  AdmissionConfig admission;
  admission.low_priority_depth = 32;
  ReplicaGroup group(dataset, cfg, 1);
  group.publish(snapshot);
  group.start();
  Router router(group, RoutePolicy::kRoundRobin, admission);

  std::atomic<int> drained{0};
  const int backlog = 300;  // far past the low-priority watermark
  for (int i = 0; i < backlog; ++i)
    ASSERT_TRUE(router.submit(static_cast<vid_t>(i % dataset.num_vertices()),
                              [&](InferResult&&) { drained.fetch_add(1); }));

  // Same instant, same vertex: the low lane sheds, the high lane does not.
  EXPECT_FALSE(router.submit(9, meta_of(ServeClock::time_point::max(), Priority::kLow),
                             [](InferResult&&) { FAIL(); }));
  std::atomic<bool> high_done{false};
  EXPECT_TRUE(router.submit(9, meta_of(ServeClock::time_point::max(), Priority::kHigh),
                            [&](InferResult&&) { high_done.store(true); }));

  while (drained.load() < backlog || !high_done.load()) std::this_thread::yield();
  group.stop();
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.shed_priority, 1u);
  EXPECT_EQ(stats.shed_deadline, 0u);
}

// ------------------------------------------------- group snapshot broadcast

TEST(SnapshotBroadcast, EveryRankReconstructsBitwiseIdenticalModel) {
  const Dataset dataset = make_replica_dataset();
  const ModelSpec spec = sage_spec(dataset);
  const auto original = ModelSnapshot::random(spec, /*seed=*/77, /*version=*/42);
  constexpr int kRoot = 1;

  std::vector<std::vector<real_t>> flats(3);
  std::vector<std::uint64_t> versions(3, 0);
  World::launch(3, [&](Communicator& comm) {
    const auto mine = broadcast_snapshot(
        comm, spec, comm.rank() == kRoot ? original : nullptr, kRoot);
    flats[static_cast<std::size_t>(comm.rank())] = mine->flatten();
    versions[static_cast<std::size_t>(comm.rank())] = mine->version();
  });

  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(versions[static_cast<std::size_t>(r)], 42u) << "rank " << r;
    EXPECT_EQ(flats[static_cast<std::size_t>(r)], original->flatten()) << "rank " << r;
  }
}

TEST(SnapshotBroadcast, FlatRoundTripMatchesAndValidatesSize) {
  const Dataset dataset = make_replica_dataset();
  const ModelSpec spec = sage_spec(dataset);
  const auto original = ModelSnapshot::random(spec, /*seed=*/7, /*version=*/5);
  const std::vector<real_t> flat = original->flatten();
  EXPECT_EQ(flat.size(), original->num_parameters());

  const auto rebuilt = ModelSnapshot::from_flat(spec, flat, /*version=*/5);
  EXPECT_EQ(rebuilt->flatten(), flat);

  std::vector<real_t> truncated(flat.begin(), flat.end() - 1);
  EXPECT_THROW(ModelSnapshot::from_flat(spec, truncated, 5), std::runtime_error);
  std::vector<real_t> oversized = flat;
  oversized.push_back(0.0f);
  EXPECT_THROW(ModelSnapshot::from_flat(spec, oversized, 5), std::runtime_error);
}

// ------------------------------------------------------- shed-vs-noshed A/B

TEST(Admission, SheddingLowersAdmittedTailUnderMmppOverload) {
  const Dataset dataset = make_replica_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ServeConfig cfg = replica_config();
  cfg.fanouts = {10, 10};
  cfg.queue_capacity = 2048;

  // Self-calibrating offered load: measure the group's service rate, then
  // offer a 2-state MMPP whose burst state is ~8x capacity — the same
  // arrival sequence (same seed/rates) drives both runs.
  const auto run = [&](bool shed) {
    ReplicaGroup group(dataset, cfg, /*num_replicas=*/2);
    group.publish(snapshot);
    group.start();
    AdmissionConfig admission;
    admission.shed_deadlines = shed;
    admission.low_priority_depth = 0;  // isolate the deadline dimension
    Router router(group, RoutePolicy::kPowerOfTwo, admission);

    std::vector<vid_t> warmup(64);
    for (std::size_t i = 0; i < warmup.size(); ++i)
      warmup[i] = static_cast<vid_t>((i * 13) % dataset.num_vertices());
    (void)router.infer_batch(warmup);
    double svc = 0;
    for (int r = 0; r < group.num_replicas(); ++r)
      svc = std::max(svc, group.replica(r).mean_service_seconds());
    if (svc <= 0) svc = 100e-6;
    const double capacity = static_cast<double>(group.num_replicas()) / svc;

    LoadStream load;
    load.arrivals.process = ArrivalProcess::kMmpp;
    load.arrivals.mmpp_rate0 = 0.5 * capacity;
    load.arrivals.mmpp_rate1 = 8.0 * capacity;
    load.arrivals.mmpp_hold0 = 0.005;
    load.arrivals.mmpp_hold1 = 0.004;
    load.arrivals.seed = 17;
    load.num_requests = 2000;
    load.deadline_seconds = 40 * svc;
    const LoadReport report = run_open_loop(load, group, submit_to(router));
    const RouterStats stats = router.stats();
    group.stop();
    return std::pair<LoadReport, RouterStats>(report, stats);
  };

  const auto [with_shed, with_stats] = run(true);
  const auto [no_shed, no_stats] = run(false);

  // Equal offered load; shedding must trade completed volume for a strictly
  // lower admitted-request tail.
  EXPECT_EQ(with_shed.offered, no_shed.offered);
  EXPECT_GT(with_stats.shed_deadline, 0u);
  EXPECT_LT(with_stats.shed_rate(), 1.0);
  EXPECT_GT(with_shed.completed, 0u);
  EXPECT_LT(with_shed.p99_ms, no_shed.p99_ms);
  EXPECT_LE(with_shed.p999_ms, no_shed.p999_ms);
}

// -------------------------------------------------------------- server stats

TEST(ReplicaGroup, AggregatedStatsCountServiceTimeAndCompletions) {
  const Dataset dataset = make_replica_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ReplicaGroup group(dataset, replica_config(), 2);
  group.publish(snapshot);
  group.start();
  Router router(group, RoutePolicy::kRoundRobin);
  std::vector<vid_t> vertices(20);
  for (std::size_t i = 0; i < vertices.size(); ++i) vertices[i] = static_cast<vid_t>(i * 11);
  (void)router.infer_batch(vertices);
  group.stop();

  const BackendStats stats = group.stats();
  EXPECT_EQ(stats.completed, vertices.size());
  EXPECT_EQ(stats.children.size(), 2u);
  for (const BackendStats& s : stats.children) {
    EXPECT_GT(s.service_seconds, 0.0);
    EXPECT_GT(s.mean_service_seconds(), 0.0);
    EXPECT_EQ(s.queue_depth, 0u);  // drained
  }
  EXPECT_EQ(router.stats().completed, vertices.size());
}

}  // namespace
}  // namespace distgnn
