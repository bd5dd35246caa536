#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/sage_model.hpp"
#include "gat_reference.hpp"
#include "graph/datasets.hpp"
#include "kernels/aggregate.hpp"
#include "nn/serialize.hpp"
#include "partition/libra.hpp"
#include "partition/partition_setup.hpp"
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

Dataset make_serving_dataset(int num_classes = 4) {
  LearnableSbmParams params;
  params.num_vertices = 512;
  params.num_classes = num_classes;
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
  SageModel model(spec.feature_dim, spec.hidden_dim, spec.num_classes, spec.num_layers,
                  /*seed=*/11);
  const std::vector<ParamRef> params = model.params();
  std::vector<real_t> flat;
  for (const ParamRef& p : params) flat.insert(flat.end(), p.value, p.value + p.size);
  const auto original = ModelSnapshot::from_flat(spec, flat, /*version=*/1);

  const std::string path = ::testing::TempDir() + "distgnn_serve_snapshot.ckpt";
  save_checkpoint(params, path);
  const auto restored = ModelSnapshot::from_checkpoint(spec, path, /*version=*/2);
  std::remove(path.c_str());
  EXPECT_EQ(restored->flatten(), flat);

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

TEST(BoundedRequestQueue, ZeroCapacityAdmitsNothing) {
  BoundedRequestQueue queue(0);
  EXPECT_FALSE(queue.try_push(make_request(0)));
  queue.close();
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

/// The registry a test-owned feature cache counts into: space 0 under
/// cache="feature", space 1 under cache="halo".
struct CacheBooks {
  obs::MetricsRegistry registry;
  CacheCounters feature{registry, "test", "feature"};
  CacheCounters halo{registry, "test", "halo"};
  std::vector<CacheCounters> spaces() const { return {feature, halo}; }
};

TEST(ShardedFeatureCache, HitMissAccountingMatchesCachesim) {
  CacheBooks books;
  ShardedFeatureCache cache(/*capacity_bytes=*/64 * 4 * sizeof(real_t), /*dim=*/4,
                            books.spaces(), /*num_shards=*/2);
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

  const CacheStats stats = books.feature.read();
  EXPECT_EQ(stats.accesses, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits(), 1u);
  EXPECT_EQ(stats.bytes_read, 4 * sizeof(real_t));
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ShardedFeatureCache, LookupInsertSplitPathMatchesGetOrFill) {
  CacheBooks books;
  ShardedFeatureCache cache(64 * 4 * sizeof(real_t), 4, books.spaces(), 1);
  std::vector<real_t> out(4);
  EXPECT_FALSE(cache.lookup(1, 7, out.data()));  // access + miss
  const real_t row[4] = {1, 2, 3, 4};
  cache.insert(1, 7, row);  // fill traffic
  EXPECT_TRUE(cache.lookup(1, 7, out.data()));
  EXPECT_EQ(out[2], 3.0f);

  const CacheStats stats = books.halo.read();
  EXPECT_EQ(stats.accesses, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.bytes_read, 4 * sizeof(real_t));
  // Space 1 only; space 0 untouched.
  EXPECT_EQ(books.feature.read().accesses, 0u);
  obs::MetricsSnapshot scrape;
  books.registry.scrape(scrape);
  EXPECT_EQ(scrape.counter_total("distgnn_test_cache_accesses_total"), 2.0);
}

TEST(ShardedFeatureCache, InvalidateDropsEntriesButKeepsStatistics) {
  CacheBooks books;
  ShardedFeatureCache cache(64 * 4 * sizeof(real_t), 4, books.spaces(), 2);
  std::vector<real_t> out(4);
  const auto fill_const = [](real_t v) {
    return [v](real_t* dst) {
      for (int j = 0; j < 4; ++j) dst[j] = v;
    };
  };
  for (std::uint64_t k = 0; k < 8; ++k) cache.get_or_fill(0, k, out.data(), fill_const(1));
  for (std::uint64_t k = 0; k < 8; ++k) EXPECT_TRUE(cache.get_or_fill(0, k, out.data(), fill_const(9)));
  const CacheStats before = books.feature.read();
  EXPECT_EQ(before.accesses, 16u);
  EXPECT_EQ(before.misses, 8u);

  cache.invalidate();

  // Statistics survive the flush; every previously-hot key misses again.
  EXPECT_EQ(books.feature.read().accesses, before.accesses);
  EXPECT_EQ(books.feature.read().misses, before.misses);
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_FALSE(cache.lookup(0, k, out.data())) << "key " << k;
  }
  // And the cache keeps working after the flush (slots were recycled).
  EXPECT_FALSE(cache.get_or_fill(0, 3, out.data(), fill_const(7)));
  EXPECT_TRUE(cache.get_or_fill(0, 3, out.data(), fill_const(9)));
  EXPECT_EQ(out[0], 7.0f);
}

TEST(ShardedFeatureCache, InvalidateClearsEverySpace) {
  CacheBooks books;
  ShardedFeatureCache cache(64 * 4 * sizeof(real_t), 4, books.spaces(), 1);
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
  CacheBooks books;
  ShardedFeatureCache cache(/*capacity_bytes=*/2 * 4 * sizeof(real_t), /*dim=*/4,
                            books.spaces(), /*num_shards=*/1);
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

  // Some batch held more than one request.
  EXPECT_LT(batched.stats().batches, batched.stats().batched_requests);
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

// ---------------------------------------------------- train/serve equality

int full_fanout(const Dataset& dataset) {
  const CsrMatrix& csr = dataset.graph.in_csr();
  eid_t max_deg = 1;
  for (vid_t v = 0; v < csr.num_rows(); ++v) max_deg = std::max(max_deg, csr.degree(v));
  return static_cast<int>(max_deg);
}

/// Serves every 17th vertex at full fanout, where sampling degenerates to the
/// whole in-adjacency in CSR order, and expects the training-side logits
/// bitwise.
void expect_served_bitwise(const Dataset& dataset, std::shared_ptr<const ModelSnapshot> snapshot,
                           ConstMatrixView train_logits) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.fanouts.assign(static_cast<std::size_t>(snapshot->spec().num_layers),
                     full_fanout(dataset));
  InferenceServer server(dataset, cfg);
  server.publish(std::move(snapshot));
  server.start();
  for (vid_t v = 0; v < dataset.num_vertices(); v += 17) {
    const InferResult result = server.infer_sync(v);
    ASSERT_EQ(result.logits.size(), train_logits.cols);
    for (std::size_t j = 0; j < result.logits.size(); ++j)
      EXPECT_EQ(result.logits[j], train_logits.at(static_cast<std::size_t>(v), j))
          << "vertex " << v << " class " << j;
  }
  server.stop();
}

TEST(TrainServeEquality, FullFanoutSageServesTrainerLogitsBitwise) {
  const Dataset dataset = make_serving_dataset();
  const ModelSpec spec = sage_spec(dataset);
  SageModel model(spec.feature_dim, spec.hidden_dim, spec.num_classes, spec.num_layers,
                  /*seed=*/29);
  // Biases start at zero; make them count.
  for (int l = 0; l < model.num_layers(); ++l) {
    DenseMatrix& bias = model.layer(l).linear().bias();
    for (std::size_t j = 0; j < bias.size(); ++j)
      bias.data()[j] = 0.01f * static_cast<real_t>(j + 1) * (l % 2 == 0 ? 1.0f : -1.0f);
  }
  const std::string path = ::testing::TempDir() + "distgnn_sage_serve.ckpt";
  save_checkpoint(model.params(), path);
  auto snapshot = ModelSnapshot::from_checkpoint(spec, path, /*version=*/1);
  std::remove(path.c_str());

  // Full-graph forward: the optimized AP, then each layer's driver.
  const CsrMatrix& in_csr = dataset.graph.in_csr();
  const auto n = static_cast<std::size_t>(dataset.num_vertices());
  DenseMatrix inv_norm(n, 1);
  for (std::size_t v = 0; v < n; ++v)
    inv_norm.at(v, 0) = 1.0f / (static_cast<real_t>(in_csr.degree(static_cast<vid_t>(v))) + 1.0f);
  DenseMatrix h = dataset.features, agg, next;
  for (int l = 0; l < model.num_layers(); ++l) {
    agg.resize_discard(n, h.cols(), 0);
    aggregate(in_csr, h.cview(), {}, agg.view(), ApConfig{});
    next.resize_discard(n, model.layer(l).out_dim());
    GraphSageLayer::combine(h.cview(), agg.cview(), inv_norm.cview(), agg.view());
    model.layer(l).forward(agg.cview(), next.view());
    h = next;
  }
  expect_served_bitwise(dataset, std::move(snapshot), h.cview());
}

TEST(TrainServeEquality, FullFanoutGatServesScalarReferenceBitwise) {
  // The served GAT layer against the naive scalar reference over the whole
  // graph. 16 output columns, so the attention dot products are wide enough
  // that a SIMD-reassociated sum on either side would change bits.
  const Dataset dataset = make_serving_dataset(/*num_classes=*/16);
  ModelSpec spec = sage_spec(dataset);
  spec.kind = ModelKind::kGat;
  spec.num_layers = 1;
  Rng rng(31);
  const GatWeights gat = GatWeights::random(static_cast<std::size_t>(spec.feature_dim),
                                            static_cast<std::size_t>(spec.num_classes), rng,
                                            spec.leaky_slope);
  auto snapshot = ModelSnapshot::from_flat(spec, gat.flatten(), /*version=*/1);

  DenseMatrix logits(static_cast<std::size_t>(dataset.num_vertices()),
                     static_cast<std::size_t>(spec.num_classes));
  gat_reference(dataset.graph.in_csr(), dataset.features.cview(), gat, logits.view());
  expect_served_bitwise(dataset, std::move(snapshot), logits.cview());
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

TEST(InferenceServer, BatchWithABadVertexThrowsAfterItsAdmittedEntriesAnswer) {
  const Dataset dataset = make_serving_dataset();
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 2;
  cfg.fanouts = {4, 4};
  InferenceServer server(dataset, cfg);
  server.publish(ModelSnapshot::random(sage_spec(dataset), 1, 1));
  server.start();
  // Entries 0-2 are admitted before entry 3 throws; their callbacks write
  // into the batch's frame, so the throw must wait them out first.
  EXPECT_THROW(server.infer_batch(std::vector<vid_t>{1, 2, 3, -1}), std::out_of_range);
  server.drain();
  EXPECT_EQ(server.stats().completed, 3u);
  server.stop();
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
  // Each vertex's feature home is the clone that owns its label in the
  // training partitions; a vertex in no edge falls back to v mod P.
  const Dataset dataset = make_serving_dataset();
  const EdgeList& edges = dataset.graph.coo();
  const auto n = static_cast<std::size_t>(dataset.num_vertices());
  for (const part_t parts : {1, 2, 4}) {
    for (const std::uint64_t libra_seed : {0u, 7u}) {
      const EdgePartition partition = partition_libra(edges, parts, libra_seed);
      std::vector<part_t> want(n, kInvalidPart);
      for (const LocalPartition& lp : build_partitions(edges, partition).parts)
        for (std::size_t li = 0; li < lp.global_ids.size(); ++li) {
          if (!lp.owns_label[li]) continue;
          const auto v = static_cast<std::size_t>(lp.global_ids[li]);
          EXPECT_EQ(want[v], kInvalidPart) << "vertex " << v << " has two label owners";
          want[v] = lp.id;
        }
      for (std::size_t v = 0; v < n; ++v)
        if (want[v] == kInvalidPart) want[v] = static_cast<part_t>(v % static_cast<std::size_t>(parts));
      EXPECT_EQ(vertex_owners(edges, partition, dataset.num_vertices()), want)
          << parts << " parts, Libra seed " << libra_seed;
    }
  }
}

TEST(ShardedServing, HaloFetcherReadsOnlyOwnedRows) {
  // Rank r owns the vertices v with v % 2 == r, at row v / 2 of its shard.
  const std::vector<part_t> owner = {0, 1, 0, 1, 0, 1};
  const std::vector<std::size_t> owned_row = {0, 0, 1, 1, 2, 2};
  World::launch(2, [&](Communicator& comm) {
    CacheBooks books;
    ShardedFeatureCache cache(64 * 4 * sizeof(real_t), 4, books.spaces(), 1);
    obs::MetricsRegistry registry;
    const HaloCounters counters{registry.counter("distgnn_test_halo_rows_total"),
                                registry.counter("distgnn_test_halo_bytes_total"),
                                registry.counter("distgnn_test_halo_wait_ns_total")};
    const DenseMatrix shard(3, 4);
    HaloFetcher fetcher(comm, owner, owned_row, shard, cache, counters);
    for (vid_t v = 0; v < 6; ++v) {
      const auto i = static_cast<std::size_t>(v);
      if (owner[i] == comm.rank())
        EXPECT_EQ(fetcher.owned(v), shard.row(owned_row[i])) << "vertex " << v;
      else
        EXPECT_THROW(fetcher.owned(v), std::out_of_range) << "vertex " << v;
    }
    EXPECT_THROW(fetcher.owned(-1), std::out_of_range);
    EXPECT_THROW(fetcher.owned(6), std::out_of_range);
  });
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
  // invalidation and reads the holder back — get(), even re-registering
  // itself, the pattern a cache wired to graph epochs uses —
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
    if (!concurrent.load()) {
      EXPECT_EQ(current->version(), version);
    }
    seen_version.store(version);
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
  EXPECT_EQ(hook_runs.load(), 2 + 32);
  EXPECT_GE(holder.get()->version(), 100u);
}

}  // namespace
}  // namespace distgnn
