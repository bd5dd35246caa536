// Embedding-cache subsystem: the generic ShardedLru, the versioned
// layer-output EmbedCache, the EmbedForward evaluator's bitwise-equality
// contract (cache on/off, hit/miss, across hot-swaps), and the
// InferenceServer embed-forward serving mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/metrics.hpp"
#include "serve/embed_cache.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/sharded_lru.hpp"
#include "serve/traffic_gen.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

Dataset make_embed_dataset() {
  LearnableSbmParams params;
  params.num_vertices = 512;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  return make_learnable_sbm(params);
}

ModelSpec embed_spec(const Dataset& dataset, ModelKind kind = ModelKind::kSage) {
  ModelSpec spec;
  spec.kind = kind;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;
  return spec;
}

// ---------------------------------------------------------------- ShardedLru

TEST(ShardedLru, GenericValuesEvictInLruOrder) {
  // Non-POD value type: the template must recycle slots without leaking
  // stale state.
  obs::MetricsRegistry registry;
  const CacheCounters counters(registry, "test", "lru");
  ShardedLru<int, std::string> lru(/*capacity_entries=*/2, /*num_shards=*/1,
                                   /*charge_bytes=*/8, {counters});
  std::string got;
  const auto fill = [](const char* text) {
    return [text](std::string& v) { v = text; };
  };
  const auto use = [&](const std::string& v) { got = v; };

  EXPECT_FALSE(lru.get_or_fill(0, 1, fill("one"), use));
  EXPECT_FALSE(lru.get_or_fill(0, 2, fill("two"), use));
  EXPECT_TRUE(lru.get_or_fill(0, 1, fill("XXX"), use));  // 1 becomes MRU
  EXPECT_EQ(got, "one");
  EXPECT_FALSE(lru.get_or_fill(0, 3, fill("three"), use));  // evicts 2
  EXPECT_TRUE(lru.get_or_fill(0, 1, fill("XXX"), use));
  EXPECT_FALSE(lru.get_or_fill(0, 2, fill("two2"), use));  // was evicted
  EXPECT_EQ(got, "two2");

  const CacheStats stats = counters.read();
  EXPECT_EQ(stats.accesses, 6u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.bytes_read, 4u * 8u);
}

TEST(ShardedLru, SpacesShareCapacityButKeepSeparateKeysAndStats) {
  obs::MetricsRegistry registry;
  const CacheCounters space0(registry, "test", "a"), space1(registry, "test", "b");
  ShardedLru<int, int> lru(/*capacity_entries=*/4, /*num_shards=*/1, /*charge_bytes=*/4,
                           {space0, space1});
  int got = -1;
  lru.insert(0, 7, [](int& v) { v = 100; });
  lru.insert(1, 7, [](int& v) { v = 200; });  // same key, different space
  EXPECT_TRUE(lru.lookup(0, 7, [&](const int& v) { got = v; }));
  EXPECT_EQ(got, 100);
  EXPECT_TRUE(lru.lookup(1, 7, [&](const int& v) { got = v; }));
  EXPECT_EQ(got, 200);
  EXPECT_EQ(space0.read().accesses, 1u);
  EXPECT_EQ(space1.read().accesses, 1u);
  obs::MetricsSnapshot scrape;
  registry.scrape(scrape);
  EXPECT_EQ(scrape.counter_total("distgnn_test_cache_accesses_total"), 2.0);

  lru.invalidate();
  EXPECT_FALSE(lru.lookup(0, 7, [&](const int&) {}));
  EXPECT_FALSE(lru.lookup(1, 7, [&](const int&) {}));
}

TEST(ShardedLru, SpaceOutsideTheConstructedSetThrows) {
  obs::MetricsRegistry registry;
  const CacheCounters only(registry, "test", "a");
  ShardedLru<int, int> lru(/*capacity_entries=*/4, /*num_shards=*/1, /*charge_bytes=*/4, {only});
  EXPECT_THROW(lru.lookup(1, 7, [](const int&) {}), std::out_of_range);
  EXPECT_THROW(lru.get_or_fill(-1, 7, [](int& v) { v = 1; }, [](const int&) {}),
               std::out_of_range);
  EXPECT_THROW(lru.insert(1, 7, [](int& v) { v = 1; }), std::out_of_range);
  EXPECT_THROW(lru.erase(1, 7), std::out_of_range);
  EXPECT_THROW(lru.retag(1, [](int&) { return true; }), std::out_of_range);
  const CacheStats stats = only.read();
  EXPECT_EQ(stats.accesses, 0u);
  EXPECT_EQ(stats.bytes_read, 0u);
}

namespace stress {
// Epoch-tagged key modelling the EmbedCache scheme: id in the low 32 bits,
// epoch above. The hash deliberately ignores the epoch so retag promotions
// stay within their shard — the property the stress test exercises.
struct IdOnlyHash {
  std::uint64_t operator()(std::uint64_t key) const {
    return splitmix64(key & 0xffffffffULL);
  }
};
constexpr std::uint64_t key_of(std::uint64_t epoch, std::uint64_t id) {
  return (epoch << 32) | id;
}
}  // namespace stress

TEST(ShardedLru, ConcurrentInvalidationNeverServesTornOrMismatchedEntries) {
  // N invalidation writers (erase / retag-to-next-epoch / full invalidate)
  // against M readers (lookup / get_or_fill / insert) over one key space.
  // The contract under fire: a lookup that hits must yield the value that
  // was filled for exactly that key (value == key id), and no operation may
  // deadlock or corrupt the shard lists.
  using Lru = serve::ShardedLru<std::uint64_t, std::uint64_t, stress::IdOnlyHash>;
  obs::MetricsRegistry registry;
  const CacheCounters counters(registry, "test", "lru");
  Lru lru(/*capacity_entries=*/128, /*num_shards=*/4, /*charge_bytes=*/8, {counters});
  constexpr std::uint64_t kIds = 256;

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> epoch{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> hits{0};

  std::vector<std::thread> threads;
  // Writer 1: epoch advance via retag — evict a sliding window of "dirty"
  // ids, promote the rest to the new epoch (the EmbedCache advance path).
  threads.emplace_back([&] {
    std::uint64_t rounds = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t next = epoch.load() + 1;
      const std::uint64_t dirty_lo = (rounds * 16) % kIds;
      lru.retag(/*space=*/0, [&](std::uint64_t& key) {
        const std::uint64_t id = key & 0xffffffffULL;
        if (id >= dirty_lo && id < dirty_lo + 16) return false;  // evict dirty
        key = stress::key_of(next, id);                          // promote
        return true;
      });
      epoch.store(next, std::memory_order_release);
      ++rounds;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  // Writer 2: targeted erases at both current and stale epochs, plus the
  // occasional blanket invalidate.
  threads.emplace_back([&] {
    Rng rng(0xe7a5e);
    std::uint64_t n = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t id = rng.next_below(kIds);
      const std::uint64_t e = epoch.load(std::memory_order_acquire);
      lru.erase(0, stress::key_of(e, id));
      if (e > 0) lru.erase(0, stress::key_of(e - 1, id));
      if (++n % 64 == 0) lru.invalidate();
    }
  });
  // Readers: mixed lookup / insert / get_or_fill at the current epoch; every
  // hit's value must equal the id it was keyed under.
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      Rng rng(0x5eed + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const std::uint64_t id = rng.next_below(kIds);
        const std::uint64_t key = stress::key_of(epoch.load(std::memory_order_acquire), id);
        const auto check = [&](const std::uint64_t& v) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (v != id) mismatches.fetch_add(1, std::memory_order_relaxed);
        };
        switch (rng.next_below(3)) {
          case 0: (void)lru.lookup(0, key, check); break;
          case 1: lru.insert(0, key, [&](std::uint64_t& v) { v = id; }); break;
          default: (void)lru.get_or_fill(0, key, [&](std::uint64_t& v) { v = id; }, check);
        }
      }
    });

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(hits.load(), 0u);  // the race was real, not all misses
  // Post-quiesce structural sanity: the cache still works end to end and
  // holds at most its capacity.
  std::uint64_t resident = 0;
  lru.retag(0, [&](std::uint64_t&) {
    ++resident;
    return true;
  });
  EXPECT_LE(resident, lru.capacity_entries());
  std::uint64_t got = 0;
  lru.insert(0, stress::key_of(9999, 1), [](std::uint64_t& v) { v = 1; });
  EXPECT_TRUE(lru.lookup(0, stress::key_of(9999, 1), [&](const std::uint64_t& v) { got = v; }));
  EXPECT_EQ(got, 1u);
  const CacheStats stats = counters.read();
  EXPECT_GE(stats.accesses, stats.misses);
}

// ---------------------------------------------------------------- EmbedCache

TEST(EmbedCache, PerLayerDimsAndRoundTrip) {
  const Dataset dataset = make_embed_dataset();
  const ModelSpec spec = embed_spec(dataset);
  obs::MetricsRegistry registry;
  EmbedCache cache(spec, /*capacity_bytes=*/1 << 20,
                   embed_cache_counters(registry, "test", spec.num_layers), /*num_shards=*/2);
  ASSERT_EQ(cache.num_layers(), 2);
  EXPECT_EQ(cache.dim(1), static_cast<std::size_t>(spec.hidden_dim));
  EXPECT_EQ(cache.dim(2), static_cast<std::size_t>(spec.num_classes));

  std::vector<real_t> h1(cache.dim(1));
  for (std::size_t j = 0; j < h1.size(); ++j) h1[j] = static_cast<real_t>(j);
  cache.insert(1, /*vertex=*/42, /*version=*/1, h1.data());
  std::vector<real_t> out(cache.dim(1), -1);
  ASSERT_TRUE(cache.lookup(1, 42, 1, out.data()));
  EXPECT_EQ(out, h1);
  // Other layer, other vertex: independent key spaces.
  EXPECT_FALSE(cache.lookup(2, 42, 1, out.data()));
  EXPECT_FALSE(cache.lookup(1, 43, 1, out.data()));
}

TEST(EmbedCache, StaleVersionNeverMatches) {
  const Dataset dataset = make_embed_dataset();
  obs::MetricsRegistry registry;
  EmbedCache cache(embed_spec(dataset), 1 << 20, embed_cache_counters(registry, "test", 2), 2);
  std::vector<real_t> v1(cache.dim(1), 1.0f), v2(cache.dim(1), 2.0f);
  std::vector<real_t> out(cache.dim(1));

  cache.insert(1, 7, /*version=*/1, v1.data());
  EXPECT_FALSE(cache.lookup(1, 7, /*version=*/2, out.data()));  // hot-swap: stale row invisible
  cache.insert(1, 7, /*version=*/2, v2.data());
  ASSERT_TRUE(cache.lookup(1, 7, 2, out.data()));
  EXPECT_EQ(out, v2);
  // The old version's row is still addressable until invalidated...
  ASSERT_TRUE(cache.lookup(1, 7, 1, out.data()));
  EXPECT_EQ(out, v1);
  // ...and invalidate() (the publish hook) reclaims everything.
  cache.invalidate();
  EXPECT_FALSE(cache.lookup(1, 7, 1, out.data()));
  EXPECT_FALSE(cache.lookup(1, 7, 2, out.data()));
}

// -------------------------------------------------------------- EmbedForward

TEST(EmbedForward, CachedEqualsUncachedBitwiseAcrossHitAndMissPaths) {
  const Dataset dataset = make_embed_dataset();
  for (const ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
    const ModelSpec spec = embed_spec(dataset, kind);
    const auto snapshot = ModelSnapshot::random(spec, /*seed=*/21, /*version=*/1);
    const std::vector<int> fanouts = {5, 5};
    // Duplicates and overlapping neighbourhoods on purpose.
    const std::vector<vid_t> seeds = {3, 77, 180, 77, 409, 3, 500};

    EmbedForward uncached(dataset, fanouts, /*sample_seed=*/1, nullptr, nullptr);
    DenseMatrix expected;
    uncached.infer(*snapshot, seeds, expected);
    ASSERT_EQ(expected.rows(), seeds.size());

    obs::MetricsRegistry registry;
    EmbedCache cache(spec, 1 << 20, embed_cache_counters(registry, "test", spec.num_layers), 2);
    ShardedFeatureCache features(1 << 20, static_cast<std::size_t>(dataset.feature_dim()),
                                 {CacheCounters(registry, "test", "feature")}, 2);
    EmbedForward cached(dataset, fanouts, 1, &cache, &features);
    DenseMatrix cold, warm;
    cached.infer(*snapshot, seeds, cold);  // miss path fills the cache
    cached.infer(*snapshot, seeds, warm);  // hit path serves from it

    for (std::size_t r = 0; r < seeds.size(); ++r)
      for (std::size_t j = 0; j < expected.cols(); ++j) {
        EXPECT_EQ(cold.at(r, j), expected.at(r, j))
            << (kind == ModelKind::kSage ? "sage" : "gat") << " cold row " << r;
        EXPECT_EQ(warm.at(r, j), expected.at(r, j))
            << (kind == ModelKind::kSage ? "sage" : "gat") << " warm row " << r;
      }
  }
}

TEST(EmbedForward, CacheHitShortCircuitsTheWholeSubtree) {
  const Dataset dataset = make_embed_dataset();
  const ModelSpec spec = embed_spec(dataset);
  const auto snapshot = ModelSnapshot::random(spec, /*seed=*/31, /*version=*/1);
  const std::vector<int> fanouts = {5, 5};
  const std::vector<vid_t> seeds = {10, 20, 30, 40};

  obs::MetricsRegistry registry;
  const std::vector<CacheCounters> levels =
      embed_cache_counters(registry, "test", spec.num_layers);
  EmbedCache cache(spec, 1 << 20, levels, 2);
  EmbedWork work(registry, "test");
  EmbedForward evaluator(dataset, fanouts, 1, &cache, nullptr, &work);
  DenseMatrix logits;
  evaluator.infer(*snapshot, seeds, logits);
  const std::uint64_t cold_rows = work.rows_computed.value();
  EXPECT_GT(cold_rows, 0u);

  // Identical repeat: every seed hits at the output layer, so no sampling
  // and no layer computation happen at all — the subtree is short-circuited.
  evaluator.infer(*snapshot, seeds, logits);
  EXPECT_EQ(work.rows_computed.value(), cold_rows);
  EXPECT_EQ(work.requests.value(), 2 * seeds.size());
  EXPECT_EQ(levels[1].read().misses, seeds.size());
  EXPECT_EQ(levels[1].read().hits(), seeds.size());
}

TEST(EmbedForward, HotSwapNeverServesStaleEmbeddings) {
  const Dataset dataset = make_embed_dataset();
  const ModelSpec spec = embed_spec(dataset);
  const auto model_a = ModelSnapshot::random(spec, /*seed=*/100, /*version=*/1);
  const auto model_b = ModelSnapshot::random(spec, /*seed=*/200, /*version=*/2);
  const std::vector<int> fanouts = {4, 4};
  const std::vector<vid_t> seeds = {1, 50, 99, 200};

  EmbedForward uncached(dataset, fanouts, 1, nullptr, nullptr);
  DenseMatrix expect_a, expect_b;
  uncached.infer(*model_a, seeds, expect_a);
  uncached.infer(*model_b, seeds, expect_b);
  // The swap is observable: the two models disagree somewhere.
  bool differ = false;
  for (std::size_t i = 0; i < expect_a.size(); ++i)
    differ |= expect_a.data()[i] != expect_b.data()[i];
  ASSERT_TRUE(differ);

  // Warm the cache under version 1, then serve version 2 with the same
  // cache: version-keyed entries make the stale rows invisible, so answers
  // must be exactly model B's.
  obs::MetricsRegistry registry;
  EmbedCache cache(spec, 1 << 20, embed_cache_counters(registry, "test", spec.num_layers), 2);
  EmbedForward cached(dataset, fanouts, 1, &cache, nullptr);
  DenseMatrix warm_a, after_swap;
  cached.infer(*model_a, seeds, warm_a);
  cached.infer(*model_b, seeds, after_swap);
  for (std::size_t r = 0; r < seeds.size(); ++r)
    for (std::size_t j = 0; j < expect_b.cols(); ++j) {
      EXPECT_EQ(warm_a.at(r, j), expect_a.at(r, j)) << "row " << r;
      EXPECT_EQ(after_swap.at(r, j), expect_b.at(r, j)) << "row " << r;
    }
}

TEST(EmbedForward, DeterministicAcrossBatchCompositions) {
  // h_L(v) must not depend on which other seeds share the batch — the
  // property that makes cached rows reusable across requests at all.
  const Dataset dataset = make_embed_dataset();
  const auto snapshot = ModelSnapshot::random(embed_spec(dataset), /*seed=*/77, /*version=*/1);
  const std::vector<int> fanouts = {5, 5};

  EmbedForward solo(dataset, fanouts, 1, nullptr, nullptr);
  DenseMatrix alone;
  const std::vector<vid_t> just_180 = {180};
  solo.infer(*snapshot, just_180, alone);

  EmbedForward grouped(dataset, fanouts, 1, nullptr, nullptr);
  DenseMatrix batched;
  const std::vector<vid_t> group = {3, 180, 409};
  grouped.infer(*snapshot, group, batched);

  for (std::size_t j = 0; j < alone.cols(); ++j) EXPECT_EQ(batched.at(1, j), alone.at(0, j));
}

// -------------------------------------------------- InferenceServer embed mode

TEST(InferenceServerEmbed, ServesBitwiseEqualToEvaluatorAndHitsOnRepeats) {
  const Dataset dataset = make_embed_dataset();
  const ModelSpec spec = embed_spec(dataset);
  const auto snapshot = ModelSnapshot::random(spec, /*seed=*/31, /*version=*/1);

  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  cfg.embed_forward = true;
  cfg.embed_cache_bytes = 4ull << 20;
  InferenceServer server(dataset, cfg);
  server.publish(snapshot);
  server.start();

  EmbedForward reference(dataset, cfg.fanouts, cfg.sample_seed, nullptr, nullptr);
  DenseMatrix expected;
  const std::vector<vid_t> seeds = {123, 7, 123, 400};
  reference.infer(*snapshot, seeds, expected);

  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const InferResult result = server.infer_sync(seeds[i]);
    ASSERT_EQ(result.logits.size(), expected.cols());
    for (std::size_t j = 0; j < expected.cols(); ++j)
      EXPECT_EQ(result.logits[j], expected.at(i, j)) << "seed " << seeds[i];
  }

  const CacheStats cold = server.stats().embed_cache;
  EXPECT_GT(cold.accesses, 0u);
  // Repeat the whole set: output-layer lookups all hit, so misses freeze.
  for (const vid_t v : seeds) (void)server.infer_sync(v);
  const CacheStats warmed = server.stats().embed_cache;
  EXPECT_EQ(warmed.misses, cold.misses);
  EXPECT_GT(warmed.hits(), cold.hits());
  server.stop();
}

TEST(InferenceServerEmbed, PublishInvalidatesAndNeverServesStale) {
  const Dataset dataset = make_embed_dataset();
  const ModelSpec spec = embed_spec(dataset);
  const auto model_a = ModelSnapshot::random(spec, /*seed=*/100, /*version=*/1);
  const auto model_b = ModelSnapshot::random(spec, /*seed=*/200, /*version=*/2);

  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 2;
  cfg.fanouts = {4, 4};
  cfg.embed_forward = true;
  cfg.embed_cache_bytes = 4ull << 20;
  InferenceServer server(dataset, cfg);
  server.publish(model_a);
  server.start();

  EmbedForward reference(dataset, cfg.fanouts, cfg.sample_seed, nullptr, nullptr);
  DenseMatrix expect_a, expect_b;
  const std::vector<vid_t> seeds = {11, 42, 11};
  reference.infer(*model_a, seeds, expect_a);
  reference.infer(*model_b, seeds, expect_b);

  for (const vid_t v : seeds) (void)server.infer_sync(v);  // warm under v1
  server.publish(model_b);                                 // hot-swap + invalidate hook
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    const InferResult result = server.infer_sync(seeds[i]);
    EXPECT_EQ(result.snapshot_version, 2u);
    for (std::size_t j = 0; j < expect_b.cols(); ++j)
      EXPECT_EQ(result.logits[j], expect_b.at(i, j)) << "seed " << seeds[i];
  }
  server.stop();
}

TEST(InferenceServerEmbed, UncachedEmbedModeServesAndReportsNoCache) {
  const Dataset dataset = make_embed_dataset();
  const auto snapshot = ModelSnapshot::random(embed_spec(dataset), /*seed=*/31, /*version=*/1);
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 2;
  cfg.fanouts = {4, 4};
  cfg.embed_forward = true;
  cfg.embed_cache_bytes = 0;  // evaluator without a cache: the A/B baseline
  InferenceServer server(dataset, cfg);
  server.publish(snapshot);
  // No embed cache, so no embed-cache series either.
  EXPECT_EQ(server.scrape_snapshot().find("distgnn_server_cache_accesses_total",
                                          {{"cache", "embed"}, {"level", "1"}}),
            nullptr);
  server.start();

  EmbedForward reference(dataset, cfg.fanouts, cfg.sample_seed, nullptr, nullptr);
  DenseMatrix expected;
  const std::vector<vid_t> seeds = {77};
  reference.infer(*snapshot, seeds, expected);
  const InferResult result = server.infer_sync(77);
  for (std::size_t j = 0; j < expected.cols(); ++j)
    EXPECT_EQ(result.logits[j], expected.at(0, j));
  EXPECT_EQ(server.stats().embed_cache.accesses, 0u);
  server.stop();
}

// ------------------------------------------------------------- Zipf sampling

TEST(ZipfSampler, SkewsMassTowardHotValuesDeterministically) {
  Rng perm_rng(9);
  const ZipfSampler zipf(/*n=*/1000, /*s=*/1.0, perm_rng);
  EXPECT_EQ(zipf.size(), 1000u);
  // Zipf(1.0) over 1000 values: rank 1 carries ~1/H_1000 ~ 13% of the mass.
  EXPECT_GT(zipf.top_probability(), 0.10);

  Rng draw_a(4), draw_b(4);
  std::vector<std::uint64_t> counts(1000, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = zipf.draw(draw_a);
    ASSERT_EQ(v, zipf.draw(draw_b));  // deterministic per seed
    ++counts[static_cast<std::size_t>(v)];
  }
  const std::uint64_t hottest = *std::max_element(counts.begin(), counts.end());
  // Uniform would put ~20 draws on each value; Zipf(1) puts ~2600 on rank 1.
  EXPECT_GT(hottest, 1000u);
}

}  // namespace
}  // namespace distgnn
