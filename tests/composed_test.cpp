// The unified ServingBackend contract and the replicated x sharded
// composition: ShardedServer as a long-lived backend (bitwise equality,
// prefetch ring depths, per-rank embedding caches), ComposedTier's R x P
// grid against a single server, Router policies over heterogeneous backend
// mixes, and the SnapshotHolder publish-hook re-registration semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/datasets.hpp"
#include "partition/libra.hpp"
#include "serve/backend.hpp"
#include "serve/composed_tier.hpp"
#include "serve/embed_cache.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/replica_group.hpp"
#include "serve/router.hpp"
#include "serve/sharded_server.hpp"
#include "util/sync.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

Dataset make_composed_dataset() {
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

std::vector<vid_t> probe_vertices(const Dataset& dataset, int count, vid_t stride) {
  std::vector<vid_t> vertices;
  for (vid_t v = 0; v < count; ++v)
    vertices.push_back((v * stride) % static_cast<vid_t>(dataset.num_vertices()));
  return vertices;
}

/// Single-server reference answers with the canonical (seed=1, {5,5}) setup
/// every backend below shares.
std::vector<std::vector<real_t>> single_server_reference(const Dataset& dataset,
                                                         std::shared_ptr<const ModelSnapshot> snap,
                                                         std::span<const vid_t> vertices) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  InferenceServer single(dataset, cfg);
  single.publish(std::move(snap));
  single.start();
  std::vector<std::vector<real_t>> expected;
  for (const vid_t v : vertices) expected.push_back(single.infer_sync(v).logits);
  single.stop();
  return expected;
}

// ------------------------------------------------------------ ShardedServer

TEST(ShardedServer, BackendAnswersBitwiseEqualSingleServerAndDrains) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/77, /*version=*/3);
  const std::vector<vid_t> vertices = probe_vertices(dataset, 40, 37);
  const auto expected = single_server_reference(dataset, snapshot, vertices);

  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);
  ShardedServeConfig cfg;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  ShardedServer server(dataset, partition, cfg);
  server.publish(snapshot);
  server.start();

  // Through the generic backend surface: async submits, then drain().
  ServingBackend& backend = server;
  std::vector<std::vector<real_t>> got(vertices.size());
  std::atomic<std::size_t> done{0};
  for (std::size_t i = 0; i < vertices.size(); ++i)
    ASSERT_TRUE(backend.submit(vertices[i], [&, i](InferResult&& r) {
      got[i] = std::move(r.logits);
      done.fetch_add(1);
    }));
  backend.drain();
  EXPECT_EQ(done.load(), vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "request " << i;

  const BackendStats stats = backend.stats();
  EXPECT_EQ(stats.completed, vertices.size());
  ASSERT_EQ(stats.children.size(), 2u);  // per-rank detail
  EXPECT_GT(stats.children[0].completed, 0u);
  EXPECT_GT(stats.children[1].completed, 0u);
  EXPECT_GT(stats.halo_rows_fetched, 0u);  // the vertex-cut really ran
  EXPECT_GT(stats.mean_service_seconds(), 0.0);
  EXPECT_EQ(stats.queue_depth, 0u);
  server.stop();
}

TEST(ShardedServer, PrefetchRingDepthsAreBitwiseIdentical) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/77, /*version=*/3);
  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);

  const std::vector<vid_t> requests = probe_vertices(dataset, 48, 29);
  ShardedServeConfig cfg;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};

  // Direct long-lived servers (the serve_sharded wrapper is gone): one
  // per depth, same snapshot, results aligned by request index.
  const auto run_at_depth = [&](int depth) {
    ShardedServeConfig at = cfg;
    at.prefetch_depth = depth;
    ShardedServer server(dataset, partition, at);
    server.publish(snapshot);
    server.start();
    std::vector<InferResult> results(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      while (!server.submit(requests[i],
                            [&results, i](InferResult&& r) { results[i] = std::move(r); }))
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    server.drain();
    const std::uint64_t halo_rows = server.stats().halo_rows_fetched;
    server.stop();
    return std::pair{std::move(results), halo_rows};
  };
  const auto [depth2, halo2] = run_at_depth(2);
  const auto [depth3, halo3] = run_at_depth(3);

  ASSERT_EQ(depth2.size(), depth3.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(depth2[i].logits, depth3[i].logits) << "request " << i;
  EXPECT_GT(halo2, 0u);
  EXPECT_GT(halo3, 0u);
}

TEST(ShardedServer, CountersAccumulateAcrossRestarts) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/77, /*version=*/3);
  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);
  ShardedServeConfig cfg;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  cfg.cache_bytes = 1;  // a near-empty halo cache: every run fetches rows
  ShardedServer server(dataset, partition, cfg);
  server.publish(snapshot);

  // A long first run, then a short second one after a restart: the rank
  // loops and their halo fetchers are rebuilt, the books are not.
  const std::vector<vid_t> first = probe_vertices(dataset, 40, 37);
  const std::vector<vid_t> second = probe_vertices(dataset, 4, 11);
  const auto run = [&](const std::vector<vid_t>& vertices) {
    server.start();
    for (const vid_t v : vertices) (void)server.infer_sync(v);
    server.drain();
    const BackendStats stats = server.stats();
    server.stop();
    return stats;
  };
  const BackendStats after_first = run(first);
  const BackendStats after_second = run(second);

  EXPECT_EQ(after_first.completed, first.size());
  EXPECT_EQ(after_second.completed, first.size() + second.size());
  EXPECT_GT(after_first.halo_rows_fetched, 0u);
  EXPECT_GT(after_second.halo_rows_fetched, after_first.halo_rows_fetched);
}

TEST(ShardedServer, RejectsInvalidConfigAndLifecycleMisuse) {
  const Dataset dataset = make_composed_dataset();
  const EdgePartition partition = partition_libra(dataset.graph.coo(), 2);
  ShardedServeConfig bad;
  bad.prefetch_depth = 0;
  EXPECT_THROW(ShardedServer(dataset, partition, bad), std::invalid_argument);

  ShardedServeConfig cfg;
  cfg.fanouts = {5, 5};
  ShardedServer server(dataset, partition, cfg);
  EXPECT_THROW(server.start(), std::logic_error);  // nothing published
  EXPECT_THROW(server.publish(nullptr), std::invalid_argument);
  server.publish(ModelSnapshot::random(sage_spec(dataset), 1, 1));
  server.start();
  EXPECT_THROW(server.submit(dataset.num_vertices(), nullptr), std::out_of_range);
  server.stop();
}

// ----------------------------------------------------- sharded embed caches

TEST(ShardedServer, EmbedModeMatchesEvaluatorBitwiseAndHitsPerRankCaches) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/21, /*version=*/1);
  const std::vector<int> fanouts = {5, 5};
  const std::vector<vid_t> seeds = probe_vertices(dataset, 24, 41);

  // Uncached canonical-sampling evaluation is the bitwise reference for
  // every embed-mode tier.
  EmbedForward reference(dataset, fanouts, /*sample_seed=*/1, nullptr, nullptr);
  DenseMatrix expected;
  reference.infer(*snapshot, seeds, expected);

  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);
  ShardedServeConfig cfg;
  cfg.max_batch = 4;
  cfg.fanouts = fanouts;
  cfg.embed_forward = true;
  ShardedServer server(dataset, partition, cfg);
  server.publish(snapshot);
  server.start();

  const auto check_pass = [&] {
    const auto results = server.infer_batch(seeds);
    ASSERT_EQ(results.size(), seeds.size());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      ASSERT_TRUE(results[i].has_value()) << "request " << i;
      const auto& logits = results[i]->logits;
      ASSERT_EQ(logits.size(), expected.cols());
      for (std::size_t j = 0; j < logits.size(); ++j)
        EXPECT_EQ(logits[j], expected.at(i, j)) << "request " << i << " class " << j;
    }
  };
  check_pass();  // cold: fills the per-rank caches
  server.drain();  // quiesce before reading stats (counters flush last)
  const BackendStats cold = server.stats();
  check_pass();  // warm: owner routing sends repeats to the same rank's cache
  server.drain();
  const BackendStats warm = server.stats();
  server.stop();

  EXPECT_GT(warm.embed_cache.accesses, cold.embed_cache.accesses);
  EXPECT_GT(warm.embed_cache.hits(), 0u);
  // The repeat pass computed nothing new: every miss happened in the cold
  // pass, so per-rank version-keyed caches really served the second one.
  EXPECT_EQ(warm.embed_cache.misses, cold.embed_cache.misses);
  ASSERT_EQ(warm.children.size(), 2u);
  EXPECT_GT(warm.children[0].embed_cache.accesses, 0u);
  EXPECT_GT(warm.children[1].embed_cache.accesses, 0u);
}

// ------------------------------------------------------------- ComposedTier

TEST(ComposedTier, R2P2AnswersBitwiseEqualSingleServer) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  const std::vector<vid_t> vertices = probe_vertices(dataset, 40, 37);
  const auto expected = single_server_reference(dataset, snapshot, vertices);

  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);
  ComposedConfig cfg;
  cfg.replicas = 2;
  cfg.shard.max_batch = 4;
  cfg.shard.fanouts = {5, 5};
  cfg.shard.prefetch_depth = 2;
  ComposedTier tier(dataset, partition, cfg);
  tier.publish(snapshot);  // the broadcast_snapshot wire path
  tier.start();

  EXPECT_EQ(tier.num_replicas(), 2);
  EXPECT_EQ(tier.num_shards(), 2);
  EXPECT_EQ(tier.version(), 1u);
  const auto results = tier.infer_batch(vertices);
  tier.stop();

  ASSERT_EQ(results.size(), vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    ASSERT_TRUE(results[i].has_value()) << "request " << i;
    EXPECT_EQ(results[i]->logits, expected[i]) << "request " << i;
    EXPECT_EQ(results[i]->snapshot_version, 1u);
  }
}

TEST(ComposedTier, BroadcastPublishHotSwapsTheWholeGrid) {
  const Dataset dataset = make_composed_dataset();
  const ModelSpec spec = sage_spec(dataset);
  const auto v1 = ModelSnapshot::random(spec, /*seed=*/100, /*version=*/1);
  const auto v2 = ModelSnapshot::random(spec, /*seed=*/200, /*version=*/2);
  const std::vector<vid_t> vertices = probe_vertices(dataset, 12, 17);
  const auto expect_v2 = single_server_reference(dataset, v2, vertices);

  const EdgePartition partition = partition_libra(dataset.graph.coo(), 2);
  ComposedConfig cfg;
  cfg.replicas = 2;
  cfg.shard.max_batch = 4;
  cfg.shard.fanouts = {5, 5};
  ComposedTier tier(dataset, partition, cfg);
  tier.publish(v1);
  tier.start();
  (void)tier.infer_batch(vertices);  // traffic on v1, then swap under load
  tier.publish(v2);
  EXPECT_EQ(tier.version(), 2u);
  for (int r = 0; r < tier.num_replicas(); ++r)
    EXPECT_EQ(tier.group().replica(r).snapshot()->version(), 2u) << "replica " << r;

  const auto results = tier.infer_batch(vertices);
  tier.stop();
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    ASSERT_TRUE(results[i].has_value());
    EXPECT_EQ(results[i]->snapshot_version, 2u);
    // The broadcast rebuilt replica 1's model from the flat payload; answers
    // must still be bitwise those of the original v2 weights.
    EXPECT_EQ(results[i]->logits, expect_v2[i]) << "request " << i;
  }
  const obs::MetricsSnapshot scrape = tier.scrape_snapshot();
  EXPECT_EQ(scrape.counter_total("distgnn_group_publishes_total"), 2.0);
  EXPECT_EQ(scrape.counter_total("distgnn_sharded_publishes_total"), 2.0 * 2);  // per replica
}

TEST(ComposedTier, StatsAggregateAcrossTheGrid) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  const EdgePartition partition = partition_libra(dataset.graph.coo(), 2);
  ComposedConfig cfg;
  cfg.replicas = 2;
  cfg.shard.max_batch = 4;
  cfg.shard.fanouts = {5, 5};
  ComposedTier tier(dataset, partition, cfg);
  tier.publish(snapshot);
  tier.start();
  const std::vector<vid_t> vertices = probe_vertices(dataset, 32, 13);
  (void)tier.infer_batch(vertices);
  tier.drain();  // quiesce: per-rank counters flush after the done callbacks
  const BackendStats stats = tier.stats();
  tier.stop();

  EXPECT_EQ(stats.completed, vertices.size());
  ASSERT_EQ(stats.children.size(), 2u);             // replicas
  ASSERT_EQ(stats.children[0].children.size(), 2u); // ranks within a replica
  EXPECT_EQ(stats.children[0].completed + stats.children[1].completed, vertices.size());
  EXPECT_EQ(tier.concurrency(), 4);  // R x P serving loops
}

/// Sum of a scrape counter over the series labelled cache="<kind>".
double cache_total(const obs::MetricsSnapshot& scrape, const std::string& name,
                   const std::string& kind) {
  double total = 0;
  for (const obs::MetricPoint& point : scrape.points)
    if (point.name == name && !point.labels.empty() &&
        point.labels.front() == obs::Labels::value_type{"cache", kind})
      total += point.value;
  return total;
}

TEST(ComposedTier, ScrapeIsTheOneBookOfCachesPublishesAndEmbedWork) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  const EdgePartition partition = partition_libra(dataset.graph.coo(), 2);
  ComposedConfig cfg;
  cfg.replicas = 2;
  cfg.shard.max_batch = 4;
  cfg.shard.fanouts = {5, 5};
  cfg.shard.embed_forward = true;
  cfg.shard.embed_cache_bytes = 1 << 20;
  ComposedTier tier(dataset, partition, cfg);
  tier.publish(snapshot);
  tier.start();
  const std::vector<vid_t> vertices = probe_vertices(dataset, 32, 13);
  (void)tier.infer_batch(vertices);
  (void)tier.infer_batch(vertices);  // repeats: embed-cache hits
  tier.drain();
  const BackendStats stats = tier.stats();
  const obs::MetricsSnapshot scrape = tier.scrape_snapshot();
  tier.stop();

  // Every rank of both replicas names its caches; each embed level too.
  for (const char* rank : {"0", "1"}) {
    for (const char* kind : {"feature", "halo"})
      EXPECT_NE(scrape.find("distgnn_sharded_cache_accesses_total", {{"cache", kind}, {"rank", rank}}),
                nullptr)
          << kind << " rank " << rank;
    for (const char* level : {"1", "2"})
      EXPECT_NE(scrape.find("distgnn_sharded_cache_misses_total",
                            {{"cache", "embed"}, {"level", level}, {"rank", rank}}),
                nullptr)
          << "embed level " << level << " rank " << rank;
  }
  // The stats() views are those counters, summed over replicas, ranks and
  // levels.
  const std::pair<const char*, CacheStats> views[] = {
      {"feature", stats.feature_cache}, {"halo", stats.halo_cache}, {"embed", stats.embed_cache}};
  for (const auto& [kind, view] : views) {
    EXPECT_EQ(cache_total(scrape, "distgnn_sharded_cache_accesses_total", kind),
              static_cast<double>(view.accesses))
        << kind;
    EXPECT_EQ(cache_total(scrape, "distgnn_sharded_cache_misses_total", kind),
              static_cast<double>(view.misses))
        << kind;
    EXPECT_EQ(cache_total(scrape, "distgnn_sharded_cache_fill_bytes_total", kind),
              static_cast<double>(view.bytes_read))
        << kind;
  }
  EXPECT_GT(stats.feature_cache.accesses, 0u);
  EXPECT_GT(stats.embed_cache.hits(), 0u);

  // One group publish, which reached the shard of each replica.
  EXPECT_EQ(scrape.counter_total("distgnn_group_publishes_total"), 1.0);
  EXPECT_EQ(scrape.counter_total("distgnn_sharded_publishes_total"), 2.0);
  // The embed evaluators' work: one request per answer, and the rows the
  // cache did not save.
  EXPECT_EQ(scrape.counter_total("distgnn_sharded_embed_requests_total"),
            static_cast<double>(stats.completed));
  EXPECT_GT(scrape.counter_total("distgnn_sharded_embed_rows_computed_total"), 0.0);
}

TEST(ComposedTier, RejectedIsTheRoutersShed) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  const EdgePartition partition = partition_libra(dataset.graph.coo(), 2);
  const std::vector<vid_t> vertices = probe_vertices(dataset, 64, 13);
  ComposedConfig cfg;
  cfg.replicas = 2;
  cfg.shard.max_batch = 4;
  cfg.shard.fanouts = {5, 5};
  // One staged request per lane and one in flight: the batch mostly sheds
  // at the Router's stage, before any leaf queue sees it.
  TenantSlo slo;
  slo.name = "only";
  slo.stage_capacity = 1;
  cfg.admission.tenants = {slo};
  cfg.admission.dispatch_window = 1;
  ComposedTier tier(dataset, partition, cfg);
  tier.publish(snapshot);
  tier.start();
  (void)tier.infer_batch(vertices);
  tier.drain();
  const BackendStats stats = tier.stats();
  const RouterStats routed = tier.router().stats();
  tier.stop();

  EXPECT_GT(routed.shed(), 0u);
  EXPECT_EQ(stats.rejected, routed.shed());
  EXPECT_EQ(stats.completed + stats.rejected, vertices.size());
}

// ------------------------------------------------- the admission contract
//
// A true from submit leads to exactly one done; blocking calls against a
// backend that cannot admit return or throw; drain() and stop() wait for
// every admitted request, including those the Router still stages. Each
// blocking call runs under a watchdog, so a regression to an untimed wait
// fails in seconds instead of hanging the suite.

constexpr auto kWatchdog = std::chrono::seconds(30);

void within_watchdog(const std::function<void()>& call) {
  auto finished = std::async(std::launch::async, call);
  if (finished.wait_for(kWatchdog) != std::future_status::ready) {
    std::fprintf(stderr, "watchdog: a call was still blocked after %lld s\n",
                 static_cast<long long>(kWatchdog.count()));
    std::_Exit(1);  // the blocked thread cannot be joined: fail now
  }
  finished.get();  // rethrows the call's exception
}

ServeConfig contract_config(std::size_t queue_capacity) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  cfg.queue_capacity = queue_capacity;
  return cfg;
}

/// `lanes` configured tenants; 0 leaves the Router its one default lane.
AdmissionConfig with_lanes(int lanes) {
  AdmissionConfig admission;
  for (int t = 0; t < lanes; ++t) {
    TenantSlo slo;
    slo.name = "lane" + std::to_string(t);
    admission.tenants.push_back(slo);
  }
  return admission;
}

TEST(Router, RefusesRatherThanDropsWhenNoReplicaCanAdmit) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  for (const bool stopped : {false, true}) {
    for (const int lanes : {0, 1, 2}) {
      SCOPED_TRACE(std::string(stopped ? "stopped group" : "zero-capacity queues") + ", " +
                   std::to_string(lanes) + " configured lanes");
      ReplicaGroup group(dataset, contract_config(stopped ? 64 : 0), /*num_replicas=*/2);
      group.publish(snapshot);
      group.start();
      if (stopped) group.stop();
      Router router(group, RoutePolicy::kRoundRobin, with_lanes(lanes));

      std::atomic<int> calls{0};
      within_watchdog([&] {
        for (tenant_t t = 0; t < std::max(lanes, 1); ++t) {
          RequestMeta meta;
          meta.tenant = t;
          EXPECT_FALSE(router.submit(1, meta, [&](InferResult&&) { calls.fetch_add(1); }));
        }
        for (const auto& result : router.infer_batch(std::vector<vid_t>{1, 2}))
          EXPECT_FALSE(result.has_value());
      });
      EXPECT_EQ(calls.load(), 0);
      const RouterStats stats = router.stats();
      EXPECT_EQ(stats.completed, 0u);
      EXPECT_EQ(stats.shed(), stats.submitted);
    }
  }
}

TEST(Backends, ZeroCapacityOrStoppedBackendsReturnOrThrowWithinTheWatchdog) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  const EdgePartition partition = partition_libra(dataset.graph.coo(), 2);
  const auto make = [&](const std::string& kind,
                        std::size_t capacity) -> std::unique_ptr<ServingBackend> {
    if (kind == "server") return std::make_unique<InferenceServer>(dataset, contract_config(capacity));
    if (kind == "group")
      return std::make_unique<ReplicaGroup>(dataset, contract_config(capacity), 2);
    ComposedConfig cfg;
    cfg.shard.max_batch = 4;
    cfg.shard.fanouts = {5, 5};
    cfg.shard.queue_capacity = capacity;
    return std::make_unique<ComposedTier>(dataset, partition, cfg);
  };
  for (const char* kind : {"server", "group", "tier"}) {
    for (const bool stopped : {false, true}) {
      SCOPED_TRACE(std::string(kind) + (stopped ? ", stopped" : ", zero capacity"));
      const auto backend = make(kind, stopped ? 64 : 0);
      backend->publish(snapshot);
      backend->start();
      if (stopped) backend->stop();

      std::atomic<int> calls{0};
      within_watchdog([&] {
        EXPECT_FALSE(backend->submit(3, [&](InferResult&&) { calls.fetch_add(1); }));
        for (const auto& result : backend->infer_batch(std::vector<vid_t>{3, 4}))
          EXPECT_FALSE(result.has_value());
        EXPECT_THROW(backend->infer_sync(3), std::runtime_error);
        backend->drain();
      });
      EXPECT_EQ(calls.load(), 0);
    }
  }
}

ComposedConfig one_in_flight() {
  ComposedConfig cfg;
  cfg.shard.max_batch = 4;
  cfg.shard.fanouts = {5, 5};
  cfg.admission.dispatch_window = 1;  // everything past the first request stages
  return cfg;
}

TEST(ComposedTier, DrainWaitsForRequestsStagedInTheRouter) {
  const Dataset dataset = make_composed_dataset();
  const EdgePartition partition = partition_libra(dataset.graph.coo(), 2);
  ComposedTier tier(dataset, partition, one_in_flight());
  tier.publish(ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1));
  tier.start();

  std::atomic<int> answered{0};
  int admitted = 0;
  for (int i = 0; i < 400; ++i)
    admitted += tier.submit(static_cast<vid_t>(i % dataset.num_vertices()),
                            [&](InferResult&&) { answered.fetch_add(1); });
  within_watchdog([&] { tier.drain(); });
  EXPECT_EQ(admitted, 400);  // the default lane stages up to 1024
  EXPECT_EQ(answered.load(), admitted);
  tier.stop();
}

TEST(ComposedTier, StopAnswersEveryStagedRequestExactlyOnce) {
  const Dataset dataset = make_composed_dataset();
  const EdgePartition partition = partition_libra(dataset.graph.coo(), 2);
  ComposedTier tier(dataset, partition, one_in_flight());
  tier.publish(ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1));
  tier.start();

  constexpr int kRequests = 200;
  std::vector<std::atomic<int>> calls(kRequests);
  std::vector<bool> admitted(kRequests);
  std::atomic<int> served{0}, shed{0};
  for (int i = 0; i < kRequests; ++i) {
    admitted[static_cast<std::size_t>(i)] = tier.submit(
        static_cast<vid_t>(i % dataset.num_vertices()),
        [&, i](InferResult&& result) {
          // Served by a replica still running, or shed once none would take it.
          EXPECT_NE(result.logits.empty(), !result.shed);
          (result.shed ? shed : served).fetch_add(1);
          calls[static_cast<std::size_t>(i)].fetch_add(1);
        });
  }
  within_watchdog([&] { tier.stop(); });
  for (int i = 0; i < kRequests; ++i)
    EXPECT_EQ(calls[static_cast<std::size_t>(i)].load(), admitted[static_cast<std::size_t>(i)] ? 1 : 0)
        << "request " << i;
  const RouterStats routed = tier.router().stats();
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(routed.completed, static_cast<std::uint64_t>(served.load()));
  EXPECT_EQ(routed.shed(), routed.submitted - routed.completed);

  within_watchdog([&] {
    EXPECT_FALSE(tier.submit(1, [](InferResult&&) { FAIL() << "answered after stop"; }));
    EXPECT_THROW(tier.infer_sync(1), std::runtime_error);
  });
}

// --------------------------------------------- heterogeneous backend mixes

/// Minimal out-of-library backend: one worker thread, configurable service
/// time, logits = {vertex}. Exists to prove the Router needs nothing beyond
/// the ServingBackend contract — and, via set_paused(), to act as a backend
/// whose queue verifiably never drains, so routing tests stay deterministic
/// under arbitrary scheduler behaviour.
class FakeBackend : public ServingBackend {
 public:
  FakeBackend(const Dataset& dataset, std::chrono::microseconds service_time)
      : dataset_(dataset), service_(service_time) {}
  ~FakeBackend() override { stop(); }

  void publish(std::shared_ptr<const ModelSnapshot> snapshot) override {
    snapshot_ = std::move(snapshot);
  }
  std::shared_ptr<const ModelSnapshot> snapshot() const override { return snapshot_; }

  void start() override {
    if (running_) return;
    stopped_ = false;
    running_ = true;
    worker_ = std::thread([this] { loop(); });
  }
  void stop() override {
    if (!running_) return;
    {
      util::MutexLock lock(mutex_);
      stopped_ = true;
      paused_ = false;  // stop drains whatever is queued
    }
    cv_.notify_all();
    worker_.join();
    running_ = false;
  }

  /// While paused the worker holds off, so queue_depth() only ever grows —
  /// the deterministic "overloaded member" for routing-policy tests.
  void set_paused(bool paused) {
    {
      util::MutexLock lock(mutex_);
      paused_ = paused;
    }
    cv_.notify_all();
  }

  using ServingBackend::submit;
  bool submit(vid_t vertex, const RequestMeta&,
              std::function<void(InferResult&&)> done) override {
    {
      util::MutexLock lock(mutex_);
      if (stopped_) return false;
      queue_.push_back({vertex, std::move(done)});
    }
    admitted_.fetch_add(1);
    cv_.notify_one();
    return true;
  }

  std::size_t queue_depth() const override {
    util::MutexLock lock(mutex_);
    return queue_.size();
  }
  void drain() override {
    while (completed_.load() < admitted_.load())
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  double mean_service_seconds() const override {
    return std::chrono::duration<double>(service_).count();
  }
  int concurrency() const override { return 1; }
  const Dataset& dataset() const override { return dataset_; }
  BackendStats stats() const override {
    BackendStats s;
    s.completed = completed_.load();
    s.queue_depth = queue_depth();
    return s;
  }

 private:
  struct Pending {
    vid_t vertex;
    std::function<void(InferResult&&)> done;
  };
  void loop() {
    while (true) {
      Pending next;
      {
        util::MutexLock lock(mutex_);
        while (!stopped_ && (paused_ || queue_.empty())) cv_.wait(lock);
        if (queue_.empty() && stopped_) return;  // stopped and drained
        if (queue_.empty()) continue;
        next = std::move(queue_.front());
        queue_.pop_front();
      }
      std::this_thread::sleep_for(service_);
      InferResult result;
      result.vertex = next.vertex;
      result.logits = {static_cast<real_t>(next.vertex)};
      if (next.done) next.done(std::move(result));
      completed_.fetch_add(1);
    }
  }

  const Dataset& dataset_;
  std::chrono::microseconds service_;
  std::shared_ptr<const ModelSnapshot> snapshot_;
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<Pending> queue_ GUARDED_BY(mutex_);
  bool stopped_ GUARDED_BY(mutex_) = false;
  bool paused_ GUARDED_BY(mutex_) = false;
  bool running_ = false;
  std::thread worker_;
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_{0};
};

TEST(Backends, InferSyncLatencyCountsFromTheFirstRefusedAttempt) {
  // Refuses its first three submits, then serves with a zero leaf latency:
  // the whole reported latency is the retries' wait.
  class RefusesFirst : public FakeBackend {
   public:
    using FakeBackend::FakeBackend;
    using ServingBackend::submit;
    bool submit(vid_t vertex, const RequestMeta& meta,
                std::function<void(InferResult&&)> done) override {
      if (refusals_.fetch_add(1) < 3) return false;
      return FakeBackend::submit(vertex, meta, std::move(done));
    }

   private:
    std::atomic<int> refusals_{0};
  };
  const Dataset dataset = make_composed_dataset();
  RefusesFirst backend(dataset, std::chrono::microseconds(0));
  backend.start();
  const auto begin = ServeClock::now();
  const InferResult result = backend.infer_sync(1);
  const double elapsed = std::chrono::duration<double>(ServeClock::now() - begin).count();
  backend.stop();
  EXPECT_EQ(result.logits, std::vector<real_t>{1.0f});
  EXPECT_GE(result.latency_seconds, 3 * 50e-6);  // three backoffs of >= 50 us
  EXPECT_LE(result.latency_seconds, elapsed);
}

TEST(Router, PowerOfTwoAvoidsTheSlowBackendInAHeterogeneousMix) {
  const Dataset dataset = make_composed_dataset();
  // Replica 1 is paused — its queue only ever grows — while the submitter
  // waits for replica 0's queue to drain between requests. Every p2c
  // decision therefore compares depth 0 (fast) against the slow member's
  // accumulated backlog, deterministically under any scheduler: the only
  // requests the slow member receives are the draws-with-replacement where
  // *both* p2c samples land on it (~1/4) plus initial ties.
  FakeBackend* members[2] = {nullptr, nullptr};
  ReplicaGroup group(dataset, /*num_replicas=*/2, [&](int replica) {
    auto backend = std::make_unique<FakeBackend>(dataset, std::chrono::microseconds(100));
    members[replica] = backend.get();
    return backend;
  });
  group.publish(ModelSnapshot::random(sage_spec(dataset), 1, 1));
  group.start();
  members[1]->set_paused(true);
  Router router(group, RoutePolicy::kPowerOfTwo);

  std::atomic<int> done{0};
  const int total = 80;
  for (int i = 0; i < total; ++i) {
    ASSERT_TRUE(router.submit(static_cast<vid_t>(i % dataset.num_vertices()),
                              [&](InferResult&&) { done.fetch_add(1); }));
    while (members[0]->queue_depth() > 0) std::this_thread::yield();
  }
  members[1]->set_paused(false);  // release the backlog so everything answers
  while (done.load() < total) std::this_thread::yield();
  group.stop();

  const RouterStats stats = router.stats();
  ASSERT_EQ(stats.admitted_per_replica.size(), 2u);
  EXPECT_EQ(stats.admitted_per_replica[0] + stats.admitted_per_replica[1],
            static_cast<std::uint64_t>(total));
  // Not a 50/50 split: the fast backend must carry a clear majority.
  EXPECT_GT(stats.admitted_per_replica[0], 2 * stats.admitted_per_replica[1]);
}

TEST(Router, AnswersStagedRequestsNoReplicaWillTakeAnyMore) {
  const Dataset dataset = make_composed_dataset();
  FakeBackend* member = nullptr;
  ReplicaGroup group(dataset, /*num_replicas=*/1, [&](int) {
    auto backend = std::make_unique<FakeBackend>(dataset, std::chrono::microseconds(100));
    member = backend.get();
    return backend;
  });
  group.publish(ModelSnapshot::random(sage_spec(dataset), 1, 1));
  group.start();
  member->set_paused(true);
  AdmissionConfig admission;
  admission.dispatch_window = 1;
  Router router(group, RoutePolicy::kRoundRobin, admission);

  // Request 0 goes to the paused member; 1 and 2 stage behind it. Stopping
  // the member directly (not through the group) answers 0, and its
  // completion finds nothing in flight and a member that refuses.
  std::vector<std::atomic<int>> calls(3);
  std::vector<bool> shed(3, false);
  for (int i = 0; i < 3; ++i)
    ASSERT_TRUE(router.submit(static_cast<vid_t>(i), [&, i](InferResult&& result) {
      shed[static_cast<std::size_t>(i)] = result.shed;
      calls[static_cast<std::size_t>(i)].fetch_add(1);
    }));
  within_watchdog([&] {
    member->stop();
    group.stop();
  });

  for (int i = 0; i < 3; ++i) EXPECT_EQ(calls[static_cast<std::size_t>(i)].load(), 1);
  EXPECT_FALSE(shed[0]);  // served
  EXPECT_TRUE(shed[1]);   // answered as shed
  EXPECT_TRUE(shed[2]);
  const RouterStats stats = router.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.shed_queue_full, 2u);
}

TEST(Router, DestroyedWithRequestsStagedAnswersThemAndTheGroupStillStops) {
  const Dataset dataset = make_composed_dataset();
  FakeBackend* member = nullptr;
  ReplicaGroup group(dataset, /*num_replicas=*/1, [&](int) {
    auto backend = std::make_unique<FakeBackend>(dataset, std::chrono::microseconds(100));
    member = backend.get();
    return backend;
  });
  group.publish(ModelSnapshot::random(sage_spec(dataset), 1, 1));
  group.start();
  member->set_paused(true);  // still accepting, never answering
  AdmissionConfig admission;
  admission.dispatch_window = 1;
  auto router = std::make_unique<Router>(group, RoutePolicy::kRoundRobin, admission);

  // Request 0 sits in the paused member; 1..4 stage behind it.
  constexpr int kRequests = 5;
  std::vector<std::atomic<int>> calls(kRequests);
  std::vector<bool> shed(kRequests, false);
  for (int i = 0; i < kRequests; ++i)
    ASSERT_TRUE(router->submit(static_cast<vid_t>(i), [&, i](InferResult&& result) {
      shed[static_cast<std::size_t>(i)] = result.shed;
      calls[static_cast<std::size_t>(i)].fetch_add(1);
    }));
  // Neither call may wait on the paused member: the Router answers what it
  // stages, and the group's stop() leaves the member's own stop() to answer
  // request 0 (whose completion must not touch the destroyed Router).
  within_watchdog([&] { router.reset(); });
  for (int i = 1; i < kRequests; ++i) {
    EXPECT_EQ(calls[static_cast<std::size_t>(i)].load(), 1) << "request " << i;
    EXPECT_TRUE(shed[static_cast<std::size_t>(i)]) << "request " << i;
  }
  EXPECT_EQ(calls[0].load(), 0);
  within_watchdog([&] { group.stop(); });
  EXPECT_EQ(calls[0].load(), 1);
  EXPECT_FALSE(shed[0]);
  within_watchdog([&] { group.drain(); });  // every admission slot came back
}

TEST(ReplicaGroup, ActsAsAPlainServingBackendWithRoundRobinPlacement) {
  const Dataset dataset = make_composed_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  const std::vector<vid_t> vertices = probe_vertices(dataset, 20, 11);
  const auto expected = single_server_reference(dataset, snapshot, vertices);

  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  ReplicaGroup group(dataset, cfg, /*num_replicas=*/3);
  group.publish(snapshot);
  group.start();

  ServingBackend& backend = group;  // no Router: the group's own placement
  EXPECT_EQ(backend.infer_sync(vertices[0]).logits, expected[0]);
  const auto results = backend.infer_batch(vertices);
  backend.drain();
  const BackendStats stats = backend.stats();
  group.stop();

  for (std::size_t i = 0; i < vertices.size(); ++i) {
    ASSERT_TRUE(results[i].has_value());
    EXPECT_EQ(results[i]->logits, expected[i]) << "request " << i;
  }
  EXPECT_EQ(stats.completed, vertices.size() + 1);  // + the infer_sync
  ASSERT_EQ(stats.children.size(), 3u);
  // Round-robin placement touched every member.
  for (const BackendStats& child : stats.children) EXPECT_GT(child.completed, 0u);
}

// -------------------------------------------------- SnapshotHolder hooks

TEST(SnapshotHolder, SetOnPublishReplacesAndClearsTheHook) {
  const Dataset dataset = make_composed_dataset();
  const ModelSpec spec = sage_spec(dataset);
  SnapshotHolder holder;

  int a_calls = 0, b_calls = 0;
  std::uint64_t last_version = 0;
  holder.set_on_publish([&](std::uint64_t v) {
    ++a_calls;
    last_version = v;
  });
  holder.publish(ModelSnapshot::random(spec, 1, /*version=*/7));
  EXPECT_EQ(a_calls, 1);
  EXPECT_EQ(last_version, 7u);

  // Re-registration replaces: only the new hook fires from now on.
  holder.set_on_publish([&](std::uint64_t v) {
    ++b_calls;
    last_version = v;
  });
  holder.publish(ModelSnapshot::random(spec, 2, /*version=*/8));
  EXPECT_EQ(a_calls, 1);
  EXPECT_EQ(b_calls, 1);
  EXPECT_EQ(last_version, 8u);

  // Clearing (null hook) disables notification without breaking publish.
  holder.set_on_publish(nullptr);
  holder.publish(ModelSnapshot::random(spec, 3, /*version=*/9));
  EXPECT_EQ(a_calls, 1);
  EXPECT_EQ(b_calls, 1);
  EXPECT_EQ(holder.get()->version(), 9u);
}

// ------------------------------------------------------ queue primitives

TEST(BoundedRequestQueue, TryPopBatchNeverBlocksAndTakesWhatIsThere) {
  BoundedRequestQueue queue(8);
  EXPECT_TRUE(queue.try_pop_batch(4).empty());  // empty queue: no block

  for (int i = 0; i < 3; ++i) {
    InferRequest request;
    request.vertex = i;
    ASSERT_TRUE(queue.try_push(std::move(request)));
  }
  EXPECT_EQ(queue.try_pop_batch(2).size(), 2u);  // capped by max_batch
  EXPECT_EQ(queue.try_pop_batch(4).size(), 1u);  // takes the remainder
  EXPECT_TRUE(queue.try_pop_batch(4).empty());
}

}  // namespace
}  // namespace distgnn
