#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "partition/libra.hpp"
#include "serve/feature_cache.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/request_queue.hpp"
#include "serve/sharded_server.hpp"
#include "serve/traffic_gen.hpp"
#include "util/sync.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

Dataset make_serving_dataset() {
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

/// Reference: run one request through the snapshot exactly as a server does.
std::vector<real_t> reference_logits(const Dataset& dataset, const ModelSnapshot& snapshot,
                                     vid_t vertex, std::span<const int> fanouts,
                                     std::uint64_t sample_seed) {
  Rng rng = request_rng(sample_seed, vertex);
  const vid_t seed[1] = {vertex};
  const MiniBatch mb = sample_minibatch(dataset.graph.in_csr(), seed, fanouts, rng);
  const std::size_t f = static_cast<std::size_t>(dataset.feature_dim());
  DenseMatrix inputs(mb.input_vertices.size(), f);
  for (std::size_t i = 0; i < mb.input_vertices.size(); ++i) {
    const real_t* src = dataset.features.row(static_cast<std::size_t>(mb.input_vertices[i]));
    std::copy(src, src + f, inputs.row(i));
  }
  ForwardScratch scratch;
  DenseMatrix logits;
  const MiniBatch batch[1] = {mb};
  snapshot.forward_batch(batch, inputs.cview(), scratch, logits);
  return {logits.row(0), logits.row(0) + logits.cols()};
}

// ---------------------------------------------------------------- snapshots

TEST(ModelSnapshot, CheckpointRoundTripServesIdentically) {
  const Dataset dataset = make_serving_dataset();
  const ModelSpec spec = sage_spec(dataset);
  const auto original = ModelSnapshot::random(spec, /*seed=*/11, /*version=*/1);

  const std::string path = ::testing::TempDir() + "distgnn_serve_snapshot.ckpt";
  original->save(path);
  const auto restored = ModelSnapshot::from_checkpoint(spec, path, /*version=*/2);
  std::remove(path.c_str());

  const std::vector<int> fanouts = {4, 4};
  for (const vid_t v : {vid_t{0}, vid_t{17}, vid_t{333}})
    EXPECT_EQ(reference_logits(dataset, *original, v, fanouts, 1),
              reference_logits(dataset, *restored, v, fanouts, 1));
}

TEST(ModelSnapshot, BatchedForwardIsBitwiseEqualToSingle) {
  const Dataset dataset = make_serving_dataset();
  for (const ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
    ModelSpec spec = sage_spec(dataset);
    spec.kind = kind;
    const auto snapshot = ModelSnapshot::random(spec, /*seed=*/21, /*version=*/1);
    const std::vector<int> fanouts = {5, 5};
    const std::size_t f = static_cast<std::size_t>(dataset.feature_dim());

    // One stacked batch of 6 requests (with a duplicate vertex).
    const std::vector<vid_t> vertices = {3, 77, 180, 77, 409, 500};
    std::vector<MiniBatch> batch;
    std::size_t rows = 0;
    for (const vid_t v : vertices) {
      Rng rng = request_rng(/*sample_seed=*/1, v);
      const vid_t seed[1] = {v};
      batch.push_back(sample_minibatch(dataset.graph.in_csr(), seed, fanouts, rng));
      rows += batch.back().input_vertices.size();
    }
    DenseMatrix inputs(rows, f);
    std::size_t row = 0;
    for (const MiniBatch& mb : batch)
      for (const vid_t v : mb.input_vertices) {
        const real_t* src = dataset.features.row(static_cast<std::size_t>(v));
        std::copy(src, src + f, inputs.row(row++));
      }
    ForwardScratch scratch;
    DenseMatrix logits;
    snapshot->forward_batch(batch, inputs.cview(), scratch, logits);
    ASSERT_EQ(logits.rows(), vertices.size());

    for (std::size_t r = 0; r < vertices.size(); ++r) {
      const std::vector<real_t> single =
          reference_logits(dataset, *snapshot, vertices[r], fanouts, 1);
      ASSERT_EQ(single.size(), logits.cols());
      for (std::size_t j = 0; j < single.size(); ++j)
        EXPECT_EQ(logits.at(r, j), single[j])
            << (kind == ModelKind::kSage ? "sage" : "gat") << " request " << r << " class " << j;
    }
  }
}

// ------------------------------------------------------------ request queue

InferRequest make_request(std::uint64_t id) {
  InferRequest request;
  request.id = id;
  request.vertex = static_cast<vid_t>(id);
  request.enqueue = ServeClock::now();
  return request;
}

TEST(BoundedRequestQueue, BatchesAndBounds) {
  BoundedRequestQueue queue(4);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(make_request(i)));
  EXPECT_FALSE(queue.try_push(make_request(9)));  // full -> reject

  auto batch = queue.pop_batch(3, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_EQ(batch[2].id, 2u);
  EXPECT_EQ(batch[0].priority, Priority::kHigh);  // default lane
  EXPECT_EQ(batch[0].deadline, ServeClock::time_point::max());

  queue.close();
  batch = queue.pop_batch(3, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 1u);  // drains the remainder after close
  EXPECT_EQ(batch[0].id, 3u);
  EXPECT_TRUE(queue.pop_batch(3, std::chrono::microseconds(0)).empty());
  EXPECT_FALSE(queue.try_push(make_request(10)));
}

TEST(BoundedRequestQueue, CloseWakesProducerBlockedInPush) {
  BoundedRequestQueue queue(1);
  ASSERT_TRUE(queue.push(make_request(0)));

  std::atomic<int> blocked_result{-1};
  std::thread producer([&] {
    // Queue is full, so this push must block until close() releases it.
    blocked_result.store(queue.push(make_request(1)) ? 1 : 0);
  });
  // Give the producer time to actually block on not_full_.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(blocked_result.load(), -1);

  queue.close();
  producer.join();
  EXPECT_EQ(blocked_result.load(), 0);  // push reports the closed queue

  // The request admitted before close still drains.
  auto batch = queue.pop_batch(4, std::chrono::microseconds(0));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 0u);
  EXPECT_TRUE(queue.pop_batch(4, std::chrono::microseconds(0)).empty());
}

TEST(BoundedRequestQueue, ZeroCapacityAdmitsNothing) {
  BoundedRequestQueue queue(0);
  EXPECT_FALSE(queue.try_push(make_request(0)));

  std::thread producer([&] { EXPECT_FALSE(queue.push(make_request(1))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();  // the only way a zero-capacity push ever returns
  producer.join();
  EXPECT_TRUE(queue.pop_batch(1, std::chrono::microseconds(0)).empty());
}

TEST(BoundedRequestQueue, OneCapacityAlternatesPushPop) {
  BoundedRequestQueue queue(1);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(queue.try_push(make_request(i)));
    EXPECT_FALSE(queue.try_push(make_request(99)));  // full at depth 1
    auto batch = queue.pop_batch(8, std::chrono::microseconds(0));
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].id, i);
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(BoundedRequestQueue, PopBatchDrainsRemainderAfterClose) {
  BoundedRequestQueue queue(8);
  for (std::uint64_t i = 0; i < 5; ++i) ASSERT_TRUE(queue.try_push(make_request(i)));
  queue.close();
  // Batches keep their size cap while draining a closed queue.
  EXPECT_EQ(queue.pop_batch(2, std::chrono::microseconds(0)).size(), 2u);
  EXPECT_EQ(queue.pop_batch(2, std::chrono::microseconds(0)).size(), 2u);
  auto last = queue.pop_batch(2, std::chrono::microseconds(0));
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last[0].id, 4u);
  EXPECT_TRUE(queue.pop_batch(2, std::chrono::microseconds(0)).empty());
}

// ------------------------------------------------------------ feature cache

TEST(ShardedFeatureCache, HitMissAccountingMatchesCachesim) {
  ShardedFeatureCache cache(/*capacity_bytes=*/64 * 4 * sizeof(real_t), /*dim=*/4,
                            /*num_shards=*/2);
  std::vector<real_t> out(4);
  int fills = 0;
  const auto fill = [&](real_t* dst) {
    ++fills;
    for (int j = 0; j < 4; ++j) dst[j] = static_cast<real_t>(10 * fills + j);
  };

  EXPECT_FALSE(cache.get_or_fill(0, 42, out.data(), fill));
  EXPECT_EQ(out[0], 10.0f);
  EXPECT_TRUE(cache.get_or_fill(0, 42, out.data(), fill));
  EXPECT_EQ(out[0], 10.0f);  // served from cache, not refilled
  EXPECT_EQ(fills, 1);

  const CacheStats stats = cache.stats(0);
  EXPECT_EQ(stats.accesses, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits(), 1u);
  EXPECT_EQ(stats.bytes_read, 4 * sizeof(real_t));
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ShardedFeatureCache, LookupInsertSplitPathMatchesGetOrFill) {
  ShardedFeatureCache cache(64 * 4 * sizeof(real_t), 4, 1);
  std::vector<real_t> out(4);
  EXPECT_FALSE(cache.lookup(1, 7, out.data()));  // access + miss
  const real_t row[4] = {1, 2, 3, 4};
  cache.insert(1, 7, row);  // fill traffic
  EXPECT_TRUE(cache.lookup(1, 7, out.data()));
  EXPECT_EQ(out[2], 3.0f);

  const CacheStats stats = cache.stats(1);
  EXPECT_EQ(stats.accesses, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes_read, 4 * sizeof(real_t));
  // Space 1 only; space 0 untouched.
  EXPECT_EQ(cache.stats(0).accesses, 0u);
  EXPECT_EQ(cache.combined_stats().accesses, 2u);
}

TEST(ShardedFeatureCache, InvalidateDropsEntriesButKeepsStatistics) {
  ShardedFeatureCache cache(64 * 4 * sizeof(real_t), 4, 2);
  std::vector<real_t> out(4);
  const auto fill_const = [](real_t v) {
    return [v](real_t* dst) {
      for (int j = 0; j < 4; ++j) dst[j] = v;
    };
  };
  for (std::uint64_t k = 0; k < 8; ++k) cache.get_or_fill(0, k, out.data(), fill_const(1));
  for (std::uint64_t k = 0; k < 8; ++k) EXPECT_TRUE(cache.get_or_fill(0, k, out.data(), fill_const(9)));
  const CacheStats before = cache.stats(0);
  EXPECT_EQ(before.accesses, 16u);
  EXPECT_EQ(before.misses, 8u);

  cache.invalidate();

  // Statistics survive the flush; every previously-hot key misses again.
  EXPECT_EQ(cache.stats(0).accesses, before.accesses);
  EXPECT_EQ(cache.stats(0).misses, before.misses);
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_FALSE(cache.lookup(0, k, out.data())) << "key " << k;
  }
  // And the cache keeps working after the flush (slots were recycled).
  EXPECT_FALSE(cache.get_or_fill(0, 3, out.data(), fill_const(7)));
  EXPECT_TRUE(cache.get_or_fill(0, 3, out.data(), fill_const(9)));
  EXPECT_EQ(out[0], 7.0f);
}

TEST(ShardedFeatureCache, InvalidateClearsEverySpace) {
  ShardedFeatureCache cache(64 * 4 * sizeof(real_t), 4, 1);
  const real_t row[4] = {1, 2, 3, 4};
  cache.insert(0, 5, row);
  cache.insert(1, 5, row);
  std::vector<real_t> out(4);
  ASSERT_TRUE(cache.lookup(0, 5, out.data()));
  ASSERT_TRUE(cache.lookup(1, 5, out.data()));
  cache.invalidate();
  EXPECT_FALSE(cache.lookup(0, 5, out.data()));
  EXPECT_FALSE(cache.lookup(1, 5, out.data()));
}

TEST(ShardedFeatureCache, EvictsLruWithinShard) {
  ShardedFeatureCache cache(/*capacity_bytes=*/2 * 4 * sizeof(real_t), /*dim=*/4,
                            /*num_shards=*/1);
  ASSERT_EQ(cache.capacity_entries(), 2u);
  std::vector<real_t> out(4);
  const auto fill_const = [](real_t v) {
    return [v](real_t* dst) {
      for (int j = 0; j < 4; ++j) dst[j] = v;
    };
  };
  cache.get_or_fill(0, 1, out.data(), fill_const(1));
  cache.get_or_fill(0, 2, out.data(), fill_const(2));
  cache.get_or_fill(0, 1, out.data(), fill_const(99));  // hit; 1 becomes MRU
  EXPECT_EQ(out[0], 1.0f);
  cache.get_or_fill(0, 3, out.data(), fill_const(3));   // evicts 2
  EXPECT_TRUE(cache.get_or_fill(0, 1, out.data(), fill_const(99)));
  EXPECT_FALSE(cache.get_or_fill(0, 2, out.data(), fill_const(2)));  // was evicted
}

// ----------------------------------------------------------------- serving

TEST(InferenceServer, MicroBatchedResultsEqualPerRequestResults) {
  const Dataset dataset = make_serving_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);

  ServeConfig single_cfg;
  single_cfg.num_workers = 1;
  single_cfg.max_batch = 1;
  single_cfg.fanouts = {5, 5};
  InferenceServer single(dataset, single_cfg);
  single.publish(snapshot);
  single.start();

  std::vector<vid_t> vertices;
  for (vid_t v = 0; v < 24; ++v) vertices.push_back((v * 37) % dataset.num_vertices());
  std::vector<std::vector<real_t>> expected;
  for (const vid_t v : vertices) expected.push_back(single.infer_sync(v).logits);
  single.stop();

  ServeConfig batched_cfg = single_cfg;
  batched_cfg.num_workers = 2;
  batched_cfg.max_batch = 8;
  batched_cfg.max_batch_delay = std::chrono::microseconds(2000);
  InferenceServer batched(dataset, batched_cfg);
  batched.publish(snapshot);

  // Queue everything before the workers exist so real micro-batches form.
  std::vector<std::vector<real_t>> got(vertices.size());
  std::atomic<int> remaining{static_cast<int>(vertices.size())};
  for (std::size_t i = 0; i < vertices.size(); ++i)
    ASSERT_TRUE(batched.submit(vertices[i], [&, i](InferResult&& r) {
      got[i] = std::move(r.logits);
      remaining.fetch_sub(1);
    }));
  batched.start();
  while (remaining.load() > 0) std::this_thread::yield();
  batched.stop();

  EXPECT_GT(batched.stats().max_batch_seen, 1u);
  EXPECT_LT(batched.stats().batches, vertices.size());
  for (std::size_t i = 0; i < vertices.size(); ++i)
    EXPECT_EQ(got[i], expected[i]) << "vertex " << vertices[i];
}

TEST(InferenceServer, RepeatQueriesHitTheFeatureCache) {
  const Dataset dataset = make_serving_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 1;
  cfg.fanouts = {5, 5};
  InferenceServer server(dataset, cfg);
  server.publish(snapshot);
  server.start();

  server.infer_sync(123);
  const CacheStats first = server.stats().feature_cache;
  EXPECT_GT(first.accesses, 0u);
  EXPECT_EQ(first.accesses, first.misses);  // cold cache: all misses

  // Identical request -> identical (deterministic) neighbourhood -> all hits.
  server.infer_sync(123);
  const CacheStats second = server.stats().feature_cache;
  EXPECT_EQ(second.misses, first.misses);
  EXPECT_EQ(second.accesses, 2 * first.accesses);
  EXPECT_EQ(second.bytes_read, second.misses * sizeof(real_t) *
                                   static_cast<std::uint64_t>(dataset.feature_dim()));
  server.stop();
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(InferenceServer, HotSwapUnderConcurrentLoadNeverServesTornModel) {
  const Dataset dataset = make_serving_dataset();
  const ModelSpec spec = sage_spec(dataset);
  const auto model_a = ModelSnapshot::random(spec, /*seed=*/100, /*version=*/1);
  const auto model_b = ModelSnapshot::random(spec, /*seed=*/200, /*version=*/2);

  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.fanouts = {4, 4};
  InferenceServer server(dataset, cfg);
  server.publish(model_a);
  server.start();

  const std::vector<vid_t> pool = {1, 50, 99, 200, 310, 444};
  std::vector<std::vector<real_t>> expect_a, expect_b;
  for (const vid_t v : pool) {
    expect_a.push_back(reference_logits(dataset, *model_a, v, cfg.fanouts, cfg.sample_seed));
    expect_b.push_back(reference_logits(dataset, *model_b, v, cfg.fanouts, cfg.sample_seed));
  }

  std::atomic<bool> swapping{true};
  std::thread publisher([&] {
    for (int i = 0; i < 50; ++i) {
      server.publish(i % 2 == 0 ? model_b : model_a);
      std::this_thread::yield();
    }
    swapping.store(false);
  });

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(c) + 7);
      for (int i = 0; i < 60; ++i) {
        const std::size_t pick = rng.next_below(pool.size());
        const InferResult result = server.infer_sync(pool[pick]);
        // Every answer must be exactly model A's or exactly model B's output
        // for this vertex, and must agree with the reported version.
        const bool is_a = result.logits == expect_a[pick];
        const bool is_b = result.logits == expect_b[pick];
        if (!((is_a && result.snapshot_version == 1) || (is_b && result.snapshot_version == 2)))
          mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  publisher.join();
  server.stop();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(server.stats().completed, 180u);
}

TEST(InferenceServer, ServesGatSnapshots) {
  const Dataset dataset = make_serving_dataset();
  ModelSpec spec = sage_spec(dataset);
  spec.kind = ModelKind::kGat;
  const auto snapshot = ModelSnapshot::random(spec, /*seed=*/5, /*version=*/7);
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 2;
  cfg.fanouts = {4, 4};
  InferenceServer server(dataset, cfg);
  server.publish(snapshot);
  server.start();
  const InferResult result = server.infer_sync(42);
  server.stop();
  EXPECT_EQ(result.snapshot_version, 7u);
  EXPECT_EQ(result.logits, reference_logits(dataset, *snapshot, 42, cfg.fanouts, 1));
}

TEST(InferenceServer, RestartsAfterStop) {
  const Dataset dataset = make_serving_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 2;
  cfg.fanouts = {4, 4};
  InferenceServer server(dataset, cfg);
  server.publish(snapshot);
  server.start();
  const InferResult before = server.infer_sync(7);
  server.stop();
  server.start();  // must reopen the queue, not serve from a dead pool
  const InferResult after = server.infer_sync(7);
  server.stop();
  EXPECT_EQ(before.logits, after.logits);
  EXPECT_EQ(server.stats().completed, 2u);
}

TEST(InferenceServer, ValidatesConfigurationAndInput) {
  const Dataset dataset = make_serving_dataset();
  ServeConfig cfg;
  cfg.fanouts = {4, 4, 4};  // 3 hops vs 2-layer model
  InferenceServer server(dataset, cfg);
  EXPECT_THROW(server.publish(ModelSnapshot::random(sage_spec(dataset), 1, 1)),
               std::invalid_argument);
  EXPECT_THROW(server.start(), std::logic_error);  // nothing published
  EXPECT_THROW(server.submit(dataset.num_vertices(), nullptr), std::out_of_range);
}

// ----------------------------------------------------------------- sharded

TEST(ShardedServing, TwoRanksMatchSingleProcessBitwise) {
  const Dataset dataset = make_serving_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/77, /*version=*/3);
  const std::vector<int> fanouts = {5, 5};

  std::vector<vid_t> requests;
  Rng rng(13);
  for (int i = 0; i < 40; ++i)
    requests.push_back(static_cast<vid_t>(rng.next_below(
        static_cast<std::uint64_t>(dataset.num_vertices()))));

  // Single-process expectation.
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.fanouts = fanouts;
  InferenceServer server(dataset, cfg);
  server.publish(snapshot);
  server.start();
  std::vector<std::vector<real_t>> expected;
  for (const vid_t v : requests) expected.push_back(server.infer_sync(v).logits);
  server.stop();

  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);
  ShardedServeConfig sharded_cfg;
  sharded_cfg.max_batch = 4;
  sharded_cfg.fanouts = fanouts;
  ShardedServer sharded(dataset, partition, sharded_cfg);
  sharded.publish(snapshot);
  sharded.start();
  std::vector<InferResult> results(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    ASSERT_TRUE(sharded.submit(requests[i],
                               [&results, i](InferResult&& r) { results[i] = std::move(r); }));
  sharded.drain();
  const BackendStats stats = sharded.stats();
  sharded.stop();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(results[i].vertex, requests[i]);
    EXPECT_EQ(results[i].logits, expected[i]) << "request " << i;
  }
  // The vertex-cut really split the workload and the halo path really ran.
  ASSERT_EQ(stats.children.size(), 2u);
  EXPECT_GT(stats.children[0].completed, 0u);
  EXPECT_GT(stats.children[1].completed, 0u);
  EXPECT_GT(stats.halo_rows_fetched, 0u);
}

TEST(ShardedServing, PrefetchMatchesSynchronousBitwiseAndWaits) {
  const Dataset dataset = make_serving_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/77, /*version=*/3);

  std::vector<vid_t> requests;
  Rng rng(29);
  for (int i = 0; i < 48; ++i)
    requests.push_back(static_cast<vid_t>(rng.next_below(
        static_cast<std::uint64_t>(dataset.num_vertices()))));

  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);
  ShardedServeConfig cfg;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};

  // One long-lived server per depth (the deprecated serve_sharded wrapper is
  // gone from the test surface); results aligned by request index.
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
    const BackendStats stats = server.stats();
    server.stop();
    return std::pair{std::move(results), stats};
  };
  const auto [sync_results, sync_stats] = run_at_depth(1);
  const auto [pre_results, pre_stats] = run_at_depth(2);  // classic double buffer

  ASSERT_EQ(pre_results.size(), sync_results.size());
  for (std::size_t i = 0; i < requests.size(); ++i)
    EXPECT_EQ(pre_results[i].logits, sync_results[i].logits) << "request " << i;

  // Both modes crossed rank boundaries and both report the wait metric the
  // overlap bench compares (wall-clock inequality itself is asserted in
  // bench_embed_cache, not here — unit tests stay timing-agnostic).
  EXPECT_GT(sync_stats.halo_rows_fetched, 0u);
  EXPECT_GT(pre_stats.halo_rows_fetched, 0u);
  EXPECT_GT(sync_stats.mean_halo_wait_per_batch(), 0.0);
  EXPECT_GE(pre_stats.mean_halo_wait_per_batch(), 0.0);
}

TEST(ShardedServing, OwnerMapCoversEveryVertexExactlyOnce) {
  const Dataset dataset = make_serving_dataset();
  const EdgePartition partition = partition_libra(dataset.graph.coo(), 2);
  const std::vector<part_t> owners =
      vertex_owners(dataset.graph.coo(), partition, dataset.num_vertices());
  ASSERT_EQ(owners.size(), static_cast<std::size_t>(dataset.num_vertices()));
  for (const part_t p : owners) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 2);
  }
}

// ------------------------------------------------------------- traffic gen

TEST(TrafficGen, PoissonArrivalsAreAscendingAndDeterministic) {
  ArrivalConfig cfg;
  cfg.process = ArrivalProcess::kPoisson;
  cfg.rate = 500;
  const auto a = generate_arrivals(cfg, 1000);
  const auto b = generate_arrivals(cfg, 1000);
  ASSERT_EQ(a.size(), 1000u);
  EXPECT_EQ(a, b);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // 1000 arrivals at 500/s ~ 2s of traffic (loose 3x bounds).
  EXPECT_GT(a.back(), 2.0 / 3.0);
  EXPECT_LT(a.back(), 6.0);
}

TEST(TrafficGen, MmppIsOverdispersedRelativeToPoisson) {
  ArrivalConfig poisson;
  poisson.process = ArrivalProcess::kPoisson;
  poisson.rate = 1000;
  ArrivalConfig mmpp;
  mmpp.process = ArrivalProcess::kMmpp;  // defaults: 250/s vs 4000/s states
  const auto pa = generate_arrivals(poisson, 20000);
  const auto ma = generate_arrivals(mmpp, 20000);

  const double pd = index_of_dispersion(pa, 0.020);
  const double md = index_of_dispersion(ma, 0.020);
  EXPECT_GT(pd, 0.6);
  EXPECT_LT(pd, 1.5);   // Poisson: variance ~ mean
  EXPECT_GT(md, 1.5);   // MMPP: bursty by construction
  EXPECT_GT(md, pd);
}

TEST(TrafficGen, LatencyRecorderQuantilesAreOrdered) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.record(i * 1e-3);
  EXPECT_EQ(rec.count(), 100u);
  EXPECT_NEAR(rec.quantile(0.5), 0.050, 0.002);
  EXPECT_LE(rec.quantile(0.5), rec.quantile(0.95));
  EXPECT_LE(rec.quantile(0.95), rec.quantile(0.99));
  EXPECT_FALSE(rec.histogram().empty());
}

TEST(TrafficGen, ClosedAndOpenLoopDriveTheServer) {
  const Dataset dataset = make_serving_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(dataset), /*seed=*/31, /*version=*/1);
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 8;
  cfg.fanouts = {4, 4};
  InferenceServer server(dataset, cfg);
  server.publish(snapshot);
  server.start();

  TrafficGenerator traffic(server, /*seed=*/3);
  const LoadReport closed = traffic.run_closed_loop(/*num_clients=*/2, /*requests_each=*/20);
  EXPECT_EQ(closed.completed, 40u);
  EXPECT_GT(closed.qps, 0.0);
  EXPECT_LE(closed.p50_ms, closed.p99_ms);

  LoadStream stream;
  stream.arrivals.process = ArrivalProcess::kMmpp;
  stream.num_requests = 100;
  stream.seed = 3;
  const LoadReport open = run_open_loop(stream, server, submit_to(server));
  EXPECT_EQ(open.completed + open.rejected, 100u);
  EXPECT_GT(open.completed, 0u);
  EXPECT_GT(open.qps, 0.0);
  server.stop();

  const std::string table = render_load_reports(std::vector<LoadReport>{closed, open}, "loads");
  EXPECT_NE(table.find("QPS"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
}

/// Only the dataset the open-loop driver draws vertices from; answers and
/// refusals come from the test's own submit function.
class DatasetOnlyBackend : public ServingBackend {
 public:
  explicit DatasetOnlyBackend(const Dataset& dataset) : dataset_(dataset) {}
  void publish(std::shared_ptr<const ModelSnapshot>) override {}
  std::shared_ptr<const ModelSnapshot> snapshot() const override { return nullptr; }
  void start() override {}
  void stop() override {}
  bool submit(vid_t, const RequestMeta&, std::function<void(InferResult&&)>) override {
    return false;
  }
  std::size_t queue_depth() const override { return 0; }
  void drain() override {}
  double mean_service_seconds() const override { return 0; }
  int concurrency() const override { return 1; }
  const Dataset& dataset() const override { return dataset_; }
  BackendStats stats() const override { return {}; }

 private:
  const Dataset& dataset_;
};

TEST(OpenLoopDriver, CountsEveryRequestAndStartsStreamsTogether) {
  const Dataset dataset = make_serving_dataset();
  const DatasetOnlyBackend backend(dataset);

  // Per tenant, refuse every 3rd request and answer the rest on the spot;
  // note when each stream's first and last request arrived.
  util::Mutex mutex;
  std::size_t submitted[2] = {0, 0};
  ServeClock::time_point first[2], last[2];
  const SubmitFn fake = [&](vid_t v, const RequestMeta& meta,
                            std::function<void(InferResult&&)> done) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, dataset.num_vertices());
    const auto t = static_cast<std::size_t>(meta.tenant);
    std::size_t nth = 0;
    {
      util::MutexLock lock(mutex);
      nth = ++submitted[t];
      if (nth == 1) first[t] = ServeClock::now();
      last[t] = ServeClock::now();
    }
    if (nth % 3 == 0) return false;
    InferResult result;
    result.latency_seconds = 1e-3;
    done(std::move(result));
    return true;
  };

  LoadStream a;
  a.arrivals.rate = 4000;
  a.arrivals.seed = 1;
  a.num_requests = 90;
  a.seed = 2;
  LoadStream b = a;
  b.arrivals.seed = 3;
  b.num_requests = 60;
  b.seed = 4;
  b.tenant = 1;
  const LoadStream streams[] = {a, b};
  const std::vector<LoadReport> reports = run_open_loop(
      streams, [&](tenant_t) -> const ServingBackend& { return backend; }, fake);

  ASSERT_EQ(reports.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    const std::size_t n = streams[s].num_requests;
    EXPECT_EQ(reports[s].offered, n);
    EXPECT_EQ(reports[s].rejected, n / 3);
    EXPECT_EQ(reports[s].completed, n - n / 3);
    std::size_t samples = 0;
    for (const LatencyRecorder::Bucket& bucket : reports[s].histogram) samples += bucket.count;
    EXPECT_EQ(samples, reports[s].completed);
    EXPECT_GT(reports[s].duration_seconds, 0.0);
  }
  // One shared t=0: each stream started before the other one finished.
  EXPECT_LT(first[1], last[0]);
  EXPECT_LT(first[0], last[1]);
}

// -------------------------------------------------------------- publish hook

TEST(SnapshotHolder, PublishHookMayReenterTheHolderWithoutDeadlock) {
  // The hook runs OUTSIDE the holder lock (model_snapshot.cpp pins that by
  // construction); this test pins the consequence: a hook that triggers
  // invalidation and reads the holder back — get(), num_publishes(), even
  // re-registering itself, the pattern a cache wired to graph epochs uses —
  // must neither deadlock nor observe a pre-publish snapshot.
  const Dataset dataset = make_serving_dataset();
  const ModelSpec spec = sage_spec(dataset);
  SnapshotHolder holder;

  std::atomic<int> hook_runs{0};
  std::atomic<std::uint64_t> seen_version{0};
  std::atomic<bool> concurrent{false};
  std::function<void(std::uint64_t)> hook = [&](std::uint64_t version) {
    hook_runs.fetch_add(1);
    // Re-enter the holder from inside the hook: the new snapshot must
    // already be visible (publish-before-hook ordering). Version equality
    // only holds while publishes are sequential — under the concurrent
    // section below a racing publish may already have superseded ours.
    const auto current = holder.get();
    ASSERT_NE(current, nullptr);
    if (!concurrent.load()) EXPECT_EQ(current->version(), version);
    seen_version.store(version);
    EXPECT_GT(holder.num_publishes(), 0u);
    holder.set_on_publish(hook);  // re-registration from the hook itself
  };
  holder.set_on_publish(hook);

  holder.publish(ModelSnapshot::random(spec, /*seed=*/3, /*version=*/10));
  EXPECT_EQ(hook_runs.load(), 1);
  EXPECT_EQ(seen_version.load(), 10u);
  holder.publish(ModelSnapshot::random(spec, /*seed=*/4, /*version=*/11));
  EXPECT_EQ(hook_runs.load(), 2);  // the re-registered hook fired, once
  EXPECT_EQ(seen_version.load(), 11u);

  // Concurrent publishers with a re-entrant hook: no deadlock, every publish
  // counted, the final snapshot is one of the published versions.
  concurrent.store(true);
  std::vector<std::thread> publishers;
  for (int t = 0; t < 4; ++t)
    publishers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i)
        holder.publish(ModelSnapshot::random(spec, /*seed=*/10 + t,
                                             /*version=*/100 + static_cast<std::uint64_t>(t)));
    });
  for (std::thread& t : publishers) t.join();
  EXPECT_EQ(holder.num_publishes(), 2u + 32u);
  EXPECT_EQ(hook_runs.load(), 2 + 32);
  EXPECT_GE(holder.get()->version(), 100u);
}

}  // namespace
}  // namespace distgnn
