// src/stream: versioned streaming graph updates. Pins the freshness
// contract end to end — delta semantics (canonical apply order), per-layer
// dirty-set computation, the epoch-keyed EmbedCache (a stale-epoch entry is
// never returned), the incremental libra extension, and the headline
// bitwise-equality property: a server that streamed K deltas under live
// read traffic answers identically to a cold server built over the final
// graph, at every tier (single server classic + embed, ShardedServer P=2,
// ComposedTier R=2 x P=2).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "partition/libra.hpp"
#include "serve/backend.hpp"
#include "serve/composed_tier.hpp"
#include "serve/embed_cache.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/sharded_server.hpp"
#include "stream/delta_publisher.hpp"
#include "stream/graph_delta.hpp"
#include "stream/mixed_loop.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;
using namespace distgnn::stream;

Dataset make_stream_dataset() {
  LearnableSbmParams params;
  params.num_vertices = 512;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 9;
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

/// Cold rebuild: base dataset + every delta through the canonical apply.
Dataset rebuild_final(const Dataset& base, const std::vector<GraphDelta>& deltas) {
  Dataset cold = base;
  for (const GraphDelta& delta : deltas) apply_delta(cold, delta);
  return cold;
}

/// Background read traffic over [0, n) vertices until stopped — the "live
/// traffic" the delta stream races against.
class BackgroundReaders {
 public:
  BackgroundReaders(ServingBackend& backend, int num_threads) {
    // Snapshot the (construction-fixed) vertex count on this thread, before
    // any delta publish can be mid-swap: reading dataset().num_vertices()
    // from the reader threads would race the barrier's graph move-assign.
    const auto n = static_cast<std::uint64_t>(backend.dataset().num_vertices());
    for (int t = 0; t < num_threads; ++t)
      threads_.emplace_back([this, &backend, t, n] {
        Rng rng(0xbead + static_cast<std::uint64_t>(t));
        while (!stop_.load(std::memory_order_acquire)) {
          (void)backend.infer_sync(static_cast<vid_t>(rng.next_below(n)));
          served_.fetch_add(1, std::memory_order_relaxed);
        }
      });
  }
  std::uint64_t stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    return served_.load();
  }
  ~BackgroundReaders() {
    if (!threads_.empty()) stop();
  }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> served_{0};
  std::vector<std::thread> threads_;
};

// --------------------------------------------------------------- GraphDelta

TEST(GraphDelta, ApplyDeletesFirstMatchingOccurrenceTheInsertsAppend) {
  EdgeList edges;
  edges.num_vertices = 4;
  edges.add(0, 1);
  edges.add(1, 2);
  edges.add(0, 1);  // duplicate of edge 0
  edges.add(2, 3);
  std::vector<int> types = {7, 8, 9, 10};

  GraphDelta delta;
  delta.edge_deletes.push_back({0, 1});  // claims index 0, not index 2
  delta.edge_deletes.push_back({3, 0});  // absent: no-op
  delta.edge_inserts.push_back({3, 1, 5});

  const DeltaApplyStats stats = apply_delta_edges(edges, types, delta);
  EXPECT_EQ(stats.edges_deleted, 1u);
  EXPECT_EQ(stats.edges_inserted, 1u);
  ASSERT_EQ(stats.removed_edge_indices, (std::vector<eid_t>{0}));

  // Survivors keep order, types stay aligned, insert appended last.
  const std::vector<Edge> expect = {{1, 2}, {0, 1}, {2, 3}, {3, 1}};
  EXPECT_EQ(edges.edges, expect);
  EXPECT_EQ(types, (std::vector<int>{8, 9, 10, 5}));
}

TEST(GraphDelta, InsertOutOfRangeThrows) {
  EdgeList edges;
  edges.num_vertices = 2;
  edges.add(0, 1);
  std::vector<int> types;
  GraphDelta delta;
  delta.edge_inserts.push_back({0, 2, 0});
  EXPECT_THROW(apply_delta_edges(edges, types, delta), std::invalid_argument);
}

TEST(GraphDelta, DeltaLogSealsEpochsAndResets) {
  DeltaLog log;
  log.insert_edge(1, 2);
  log.remove_edge(3, 4);
  log.update_feature(5, {1.0f, 2.0f});
  EXPECT_EQ(log.pending(), 3u);

  const GraphDelta first = log.seal();
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(first.edge_inserts.size(), 1u);
  EXPECT_EQ(first.edge_deletes.size(), 1u);
  EXPECT_EQ(first.feature_updates.size(), 1u);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_EQ(log.sealed_epochs(), 1u);

  const GraphDelta second = log.seal();  // sealing empty still stamps
  EXPECT_EQ(second.epoch, 2u);
  EXPECT_TRUE(second.empty());
}

TEST(GraphDelta, DirtySetsSeedAtTouchedVerticesAndPropagateOutward) {
  // Post graph: 0->1, 1->2, 3->3 (self loop). Delta: inserted edge 0->1,
  // feature update at 0.
  EdgeList edges;
  edges.num_vertices = 4;
  edges.add(0, 1);
  edges.add(1, 2);
  edges.add(3, 3);
  const Graph post(edges);

  GraphDelta delta;
  delta.edge_inserts.push_back({0, 1, 0});
  FeatureUpdate fu;
  fu.vertex = 0;
  fu.row = {0.0f};
  delta.feature_updates.push_back(fu);

  const auto dirty = compute_dirty_sets(post, delta, /*num_layers=*/2);
  ASSERT_EQ(dirty.size(), 2u);
  // Layer 1: T = {1} (insert dst) ∪ Dirty_0 = {0} ∪ out({0}) = {1}.
  EXPECT_EQ(dirty[0], (std::vector<vid_t>{0, 1}));
  // Layer 2: T ∪ Dirty_1 ∪ out(Dirty_1) = {1} ∪ {0,1} ∪ {1,2} = {0,1,2}.
  EXPECT_EQ(dirty[1], (std::vector<vid_t>{0, 1, 2}));
}

TEST(GraphDelta, StreamGeneratorDeletesAlwaysExistAndReplayCleanly) {
  const Dataset base = make_stream_dataset();
  DeltaStreamConfig cfg;
  cfg.num_deltas = 6;
  cfg.seed = 31;
  const auto deltas = make_delta_stream(base, cfg);
  ASSERT_EQ(deltas.size(), 6u);

  Dataset evolved = base;
  eid_t expect_edges = base.num_edges();
  for (const GraphDelta& delta : deltas) {
    const DeltaApplyStats stats = apply_delta(evolved, delta);
    // Every generated delete names a live edge, so none is a no-op.
    EXPECT_EQ(stats.edges_deleted, delta.edge_deletes.size());
    expect_edges += static_cast<eid_t>(delta.edge_inserts.size()) -
                    static_cast<eid_t>(stats.edges_deleted);
  }
  EXPECT_EQ(evolved.num_edges(), expect_edges);
}

// ---------------------------------------------------- incremental partition

TEST(ExtendPartitionLibra, SurvivorsKeepOwnersAndNewEdgesAreAssigned) {
  const Dataset base = make_stream_dataset();
  const EdgeList& coo = base.graph.coo();
  EdgePartition partition = partition_libra(coo, /*num_parts=*/3);
  const EdgePartition before = partition;

  // Delete 5 known edges, insert 7 new ones — through the same delta path
  // the publisher uses.
  EdgeList post = coo;
  std::vector<int> no_types;
  GraphDelta delta;
  for (std::size_t e = 0; e < 5; ++e) delta.edge_deletes.push_back(coo.edges[11 * e]);
  for (vid_t v = 0; v < 7; ++v) delta.edge_inserts.push_back({v, v + 1, 0});
  const DeltaApplyStats stats = apply_delta_edges(post, no_types, delta);
  ASSERT_EQ(stats.edges_deleted, 5u);

  extend_partition_libra(partition, post, stats.removed_edge_indices, 7);

  ASSERT_EQ(partition.edge_owner.size(), post.edges.size());
  // Surviving edges keep their owners (in compacted order).
  std::vector<bool> removed(before.edge_owner.size(), false);
  for (const eid_t e : stats.removed_edge_indices) removed[static_cast<std::size_t>(e)] = true;
  std::size_t out = 0;
  for (std::size_t e = 0; e < before.edge_owner.size(); ++e) {
    if (removed[e]) continue;
    EXPECT_EQ(partition.edge_owner[out], before.edge_owner[e]) << "survivor " << out;
    ++out;
  }
  // Inserted edges all got a real owner; the histogram reconciles.
  std::vector<eid_t> histogram(static_cast<std::size_t>(partition.num_parts), 0);
  for (const part_t p : partition.edge_owner) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, partition.num_parts);
    ++histogram[static_cast<std::size_t>(p)];
  }
  EXPECT_EQ(histogram, partition.edges_per_part);
}

// ------------------------------------------------------- epoch-keyed cache

TEST(EmbedCacheEpoch, StaleEpochEntryIsNeverReturned) {
  const Dataset dataset = make_stream_dataset();
  EmbedCache cache(sage_spec(dataset), /*capacity_bytes=*/1 << 20, /*num_shards=*/2);
  const std::size_t d = cache.dim(1);
  std::vector<real_t> row(d, 1.5f), out(d, 0.0f);

  cache.insert(1, /*vertex=*/5, /*version=*/3, row.data(), /*epoch=*/0);
  EXPECT_TRUE(cache.lookup(1, 5, 3, out.data(), /*epoch=*/0));
  // Same (vertex, version) under any other epoch: miss, bitwise-never-mixed.
  EXPECT_FALSE(cache.lookup(1, 5, 3, out.data(), /*epoch=*/1));
  EXPECT_FALSE(cache.lookup(1, 5, 3, out.data(), /*epoch=*/7));
}

TEST(EmbedCacheEpoch, AdvanceEvictsDirtyAndPromotesClean) {
  const Dataset dataset = make_stream_dataset();
  EmbedCache cache(sage_spec(dataset), 1 << 20, 2);
  const std::size_t d1 = cache.dim(1);
  const std::size_t d2 = cache.dim(2);
  std::vector<real_t> row(std::max(d1, d2), 2.0f), out(std::max(d1, d2));

  cache.insert(1, 5, 3, row.data(), /*epoch=*/0);   // dirty at layer 1
  cache.insert(1, 6, 3, row.data(), /*epoch=*/0);   // clean
  cache.insert(2, 5, 3, row.data(), /*epoch=*/0);   // clean at layer 2
  const auto advance = cache.advance_epoch(/*new_epoch=*/1, {{5}, {}});
  EXPECT_EQ(advance.evicted, 1u);
  EXPECT_EQ(advance.retained, 2u);

  EXPECT_FALSE(cache.lookup(1, 5, 3, out.data(), 1));  // evicted
  EXPECT_TRUE(cache.lookup(1, 6, 3, out.data(), 1));   // promoted
  EXPECT_FALSE(cache.lookup(1, 6, 3, out.data(), 0));  // old epoch gone
  EXPECT_TRUE(cache.lookup(2, 5, 3, out.data(), 1));   // other layer clean

  // A racing batch inserting under the OLD epoch after the advance wastes a
  // slot but is invisible to post-delta readers.
  cache.insert(1, 7, 3, row.data(), /*epoch=*/0);
  EXPECT_FALSE(cache.lookup(1, 7, 3, out.data(), /*epoch=*/1));
}

// ---------------------------------------------- bitwise equality, per tier

/// Streams `deltas` through `publisher` while `readers` threads hammer the
/// backend, then compares probe answers against a fresh single server over
/// the final graph.
void expect_streamed_equals_cold(ServingBackend& live, DeltaPublisher& publisher,
                                 const Dataset& base, const std::vector<GraphDelta>& deltas,
                                 std::shared_ptr<const ModelSnapshot> snapshot,
                                 bool embed_forward) {
  {
    BackgroundReaders readers(live, /*num_threads=*/2);
    for (const GraphDelta& delta : deltas) {
      publisher.publish(delta);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_GT(readers.stop(), 0u);  // reads really ran during the stream
  }
  EXPECT_EQ(live.graph_epoch(), deltas.back().epoch);

  const Dataset cold_data = rebuild_final(base, deltas);
  ServeConfig cold_cfg;
  cold_cfg.num_workers = 1;
  cold_cfg.max_batch = 4;
  cold_cfg.fanouts = {5, 5};
  cold_cfg.embed_forward = embed_forward;
  InferenceServer cold(cold_data, cold_cfg);
  cold.publish(snapshot);
  cold.start();

  const std::vector<vid_t> probes = probe_vertices(base, 40, 37);
  for (const vid_t v : probes) {
    const InferResult a = live.infer_sync(v);
    const InferResult b = cold.infer_sync(v);
    EXPECT_EQ(a.logits, b.logits) << "vertex " << v;
  }
  cold.stop();
  live.stop();
}

TEST(StreamServing, SingleServerClassicBitwiseEqualAfterDeltas) {
  const Dataset base = make_stream_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(base), /*seed=*/77, /*version=*/3);
  DeltaStreamConfig stream_cfg;
  stream_cfg.num_deltas = 5;
  stream_cfg.seed = 101;
  const auto deltas = make_delta_stream(base, stream_cfg);

  Dataset live_data = base;
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  InferenceServer live(live_data, cfg);
  live.publish(snapshot);
  live.start();
  DeltaPublisher publisher(live_data, live);
  expect_streamed_equals_cold(live, publisher, base, deltas, snapshot, /*embed_forward=*/false);
}

TEST(StreamServing, SingleServerEmbedCachedBitwiseEqualAfterDeltas) {
  const Dataset base = make_stream_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(base), 77, 3);
  DeltaStreamConfig stream_cfg;
  stream_cfg.num_deltas = 5;
  stream_cfg.seed = 102;
  const auto deltas = make_delta_stream(base, stream_cfg);

  Dataset live_data = base;
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  cfg.embed_forward = true;
  cfg.embed_cache_bytes = 1 << 20;
  InferenceServer live(live_data, cfg);
  live.publish(snapshot);
  live.start();
  DeltaPublisher publisher(live_data, live);
  expect_streamed_equals_cold(live, publisher, base, deltas, snapshot, /*embed_forward=*/true);
  // The targeted invalidation retained entries across deltas (the cache was
  // not blanket-flushed): accesses kept landing and some hit post-delta.
  ASSERT_NE(live.embed_cache(), nullptr);
  EXPECT_GT(live.embed_cache()->combined_stats().accesses, 0u);
}

TEST(StreamServing, ShardedServerBitwiseEqualAfterDeltas) {
  const Dataset base = make_stream_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(base), 77, 3);
  DeltaStreamConfig stream_cfg;
  stream_cfg.num_deltas = 4;
  stream_cfg.seed = 103;
  const auto deltas = make_delta_stream(base, stream_cfg);

  Dataset live_data = base;
  EdgePartition partition = partition_libra(live_data.graph.coo(), /*num_parts=*/2);
  ShardedServeConfig cfg;
  cfg.max_batch = 4;
  cfg.fanouts = {5, 5};
  cfg.prefetch_depth = 2;
  ShardedServer live(live_data, partition, cfg);
  live.publish(snapshot);
  live.start();
  DeltaPublisher publisher(live_data, live, {}, &partition);
  expect_streamed_equals_cold(live, publisher, base, deltas, snapshot, /*embed_forward=*/false);
  // The evolving partition stayed aligned with the evolving edge list.
  EXPECT_EQ(partition.edge_owner.size(), rebuild_final(base, deltas).graph.coo().edges.size());
}

TEST(StreamServing, ComposedTierBitwiseEqualAfterDeltas) {
  const Dataset base = make_stream_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(base), 77, 3);
  DeltaStreamConfig stream_cfg;
  stream_cfg.num_deltas = 3;
  stream_cfg.seed = 104;
  const auto deltas = make_delta_stream(base, stream_cfg);

  Dataset live_data = base;
  EdgePartition partition = partition_libra(live_data.graph.coo(), /*num_parts=*/2);
  ComposedConfig cfg;
  cfg.replicas = 2;
  cfg.shard.max_batch = 4;
  cfg.shard.fanouts = {5, 5};
  ComposedTier live(live_data, partition, cfg);
  live.publish(snapshot);
  live.start();
  DeltaPublisher publisher(live_data, live, {}, &partition);
  expect_streamed_equals_cold(live, publisher, base, deltas, snapshot, /*embed_forward=*/false);
}

// ------------------------------------------------------------- mixed loop

TEST(MixedLoop, ReadsCompleteWhileWriteStreamPublishes) {
  const Dataset base = make_stream_dataset();
  const auto snapshot = ModelSnapshot::random(sage_spec(base), 77, 3);
  DeltaStreamConfig stream_cfg;
  stream_cfg.num_deltas = 4;
  stream_cfg.seed = 105;
  const auto deltas = make_delta_stream(base, stream_cfg);

  Dataset live_data = base;
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 8;
  cfg.fanouts = {5, 5};
  InferenceServer server(live_data, cfg);
  server.publish(snapshot);
  server.start();
  DeltaPublisher publisher(live_data, server);

  MixedLoopConfig mixed;
  mixed.reads.arrivals.process = ArrivalProcess::kPoisson;
  mixed.reads.arrivals.rate = 2000;
  mixed.reads.num_requests = 400;
  mixed.writes.process = ArrivalProcess::kPoisson;
  mixed.writes.rate = 50;  // ~80ms of write stream under a ~200ms read run
  const MixedLoopReport report =
      run_mixed_open_loop(server, publisher, deltas, mixed);
  server.stop();

  EXPECT_EQ(report.deltas_published, deltas.size());
  EXPECT_EQ(report.final_epoch, deltas.back().epoch);
  EXPECT_GT(report.reads.completed, 0u);
  EXPECT_GT(report.reads.qps, 0.0);
  EXPECT_GT(report.apply_p99_ms, 0.0);
  EXPECT_EQ(publisher.stats().deltas_published, deltas.size());
  // Targeted invalidation touches strictly fewer entries than a full flush.
  EXPECT_LT(publisher.stats().dirty_entries, publisher.stats().full_flush_equivalent);
}

}  // namespace
}  // namespace distgnn
