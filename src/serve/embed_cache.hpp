// Serving-tier embedding cache: layer outputs keyed by (vertex, layer,
// snapshot version), plus the cached forward evaluator that consults it.
//
// The paper's core lever is avoiding redundant aggregation work (delayed
// remote aggregates); the serving analogue is avoiding redundant *forward*
// work across requests. Under skewed (Zipfian) query popularity the same hot
// vertices are asked about over and over, and every such request re-samples
// and re-aggregates a full k-hop subtree. EmbedCache memoizes hop-k
// embeddings so a hit at (v, layer=k) short-circuits v's entire k-hop
// subtree — for a hit at the output layer, the whole request collapses to
// one cache copy.
//
// Soundness requires that h_l(v) be a pure function of (snapshot, v, l),
// which the classic serving forward does not provide: sample_minibatch draws
// the whole recursive plan from one request-seeded stream, so the 1-hop
// sample of an *interior* vertex depends on which request pulled it in.
// EmbedForward therefore samples canonically — vertex u's 1-hop block for
// layer l is drawn from embed_rng(sample_seed, u, l), independent of request
// context — making every cached row bitwise-reproducible: cache-on,
// cache-off, hit, miss, and any batch composition all yield identical
// logits for the same snapshot.
//
// Staleness: keys carry the snapshot version, so an entry computed under
// version N can never satisfy a lookup under version N+1 — even if a racing
// in-flight batch inserts old-version rows after a hot-swap. The
// SnapshotHolder publish hook additionally invalidate()s the cache so stale
// entries release capacity immediately instead of aging out of the LRU.
//
// Graph epochs (src/stream): keys additionally carry the graph epoch, so a
// row computed over epoch e can never satisfy a lookup after a delta bumped
// the graph to e+1 — a racing in-flight batch that inserts old-epoch rows
// after the swap wastes a slot but can never be read back. advance_epoch()
// is the targeted alternative to invalidate(): entries whose vertex is in
// the delta's dirty set are evicted, everything else is promoted in place to
// the new epoch (hit rate survives the delta).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/metrics.hpp"
#include "serve/feature_cache.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/sharded_lru.hpp"
#include "util/rng.hpp"

namespace distgnn::serve {

/// Canonical sampling stream for vertex `vertex`'s one-hop block feeding
/// layer `layer` (0-based): depends only on (sample_seed, vertex, layer),
/// never on request context — the purity EmbedCache keys rely on.
Rng embed_rng(std::uint64_t sample_seed, vid_t vertex, int layer);

/// Sharded LRU of layer outputs. Layer l (1-based: h_1 .. h_L) rows are
/// out_dim(l-1) floats wide, so each layer gets its own ShardedLru instance;
/// capacity_bytes is split evenly across layers. Each layer counts into its
/// own CacheCounters (see embed_cache_counters).
class EmbedCache {
 public:
  struct Key {
    std::uint64_t version = 0;
    std::uint64_t epoch = 0;  // graph epoch (delta stream); 0 = frozen graph
    std::uint64_t vertex = 0;
    bool operator==(const Key&) const = default;
  };
  /// Deliberately excludes the epoch: advance_epoch() rewrites keys in place
  /// (epoch e -> e+1) and the promoted key must stay in the same LRU shard.
  /// Equality still includes the epoch, so a stale-epoch entry never matches.
  struct KeyHash {
    std::uint64_t operator()(const Key& k) const {
      return splitmix64(k.version ^ splitmix64(k.vertex));
    }
  };

  /// `max_entries_per_layer` bounds slot metadata for narrow layers (a
  /// byte budget alone would buy e.g. half a million 8-float logit slots):
  /// invalidate-on-publish keeps one version resident, so the true key
  /// population is the vertex count — pass it when known; 0 = uncapped.
  /// `levels[l-1]` counts layer l's traffic; one per layer of `spec`.
  EmbedCache(const ModelSpec& spec, std::uint64_t capacity_bytes,
             std::vector<CacheCounters> levels, int num_shards = 8,
             std::uint64_t max_entries_per_layer = 0);

  /// Copies h_layer(vertex) under (version, graph epoch) into `out`
  /// (dim(layer) floats) on hit. A row cached under any other version or
  /// epoch never matches.
  bool lookup(int layer, vid_t vertex, std::uint64_t version, real_t* out,
              std::uint64_t epoch = 0);
  void insert(int layer, vid_t vertex, std::uint64_t version, const real_t* row,
              std::uint64_t epoch = 0);

  /// Drops every entry (publish-hook invalidation); the counters keep counting.
  void invalidate();

  /// Counters from one advance_epoch sweep (summed over layers).
  struct EpochAdvance {
    std::uint64_t evicted = 0;   // dirty entries dropped
    std::uint64_t retained = 0;  // clean entries promoted to the new epoch
  };

  /// Targeted invalidation for a graph delta: for each layer l, entries
  /// whose vertex appears in dirty_layers[l-1] are evicted; every other
  /// resident entry is promoted in place to `new_epoch` (its hash excludes
  /// the epoch, so promotion stays within the shard). Entries a racing batch
  /// inserts under the old epoch afterwards waste a slot but never match.
  /// Layers beyond dirty_layers.size() promote everything.
  EpochAdvance advance_epoch(std::uint64_t new_epoch,
                             const std::vector<std::vector<vid_t>>& dirty_layers);

  int num_layers() const { return static_cast<int>(layers_.size()); }
  /// Row width of layer l in floats (l in [1, num_layers]).
  std::size_t dim(int layer) const;
  /// Whether `spec`'s layer outputs have this cache's depth and row widths.
  bool fits(const ModelSpec& spec) const;

 private:
  using LayerLru = ShardedLru<Key, std::vector<real_t>, KeyHash>;

  LayerLru& layer_lru(int layer);

  std::vector<std::size_t> dims_;               // dims_[l-1] = width of h_l
  std::vector<std::unique_ptr<LayerLru>> layers_;  // layers_[l-1] caches h_l
};

/// An embed cache's counters, one CacheCounters per level l = 1..num_levels
/// of distgnn_<layer>_cache_*_total, labelled cache="embed", level="<l>" and
/// then `labels`.
std::vector<CacheCounters> embed_cache_counters(obs::MetricsRegistry& registry,
                                                const std::string& layer, int num_levels,
                                                const obs::Labels& labels = {});

/// EmbedForward's work, as handles into its tier's registry:
/// distgnn_<layer>_embed_{requests,rows_computed}_total under `labels`.
/// Against the requests, the rows show how much forward work the embed
/// cache saves. Each computed row samples exactly one one-hop block, so the
/// rows also count the blocks sampled.
struct EmbedWork {
  EmbedWork(obs::MetricsRegistry& registry, const std::string& layer,
            const obs::Labels& labels = {});

  obs::Counter& requests;       // seeds evaluated
  obs::Counter& rows_computed;  // (vertex, layer) pairs evaluated
};

/// The embedding-cached serving forward: memoized, level-by-level evaluation
/// of h_L(seed) with canonical per-(vertex, layer) sampling.
///
/// Downward pass: resolve each needed (vertex, layer) — feature rows come
/// through the feature cache, cached embeddings are copied out (pruning that
/// vertex's subtree), and only true misses expand their one-hop block.
/// Upward pass: each level's pending vertices are stacked into one
/// forward_layer call (the GEMM amortization of micro-batching, kept), and
/// freshly computed rows are inserted into the cache.
///
/// One instance per worker thread (scratch is not shareable); the caches are
/// thread-safe and shared.
class EmbedForward {
 public:
  /// `cache` and `feature_cache` may be null (uncached evaluation — the
  /// bitwise-equality baseline), and so may `work` (uncounted evaluation).
  /// The dataset must outlive the evaluator.
  EmbedForward(const Dataset& dataset, std::vector<int> fanouts, std::uint64_t sample_seed,
               EmbedCache* cache, ShardedFeatureCache* feature_cache,
               EmbedWork* work = nullptr);

  /// Computes logits (one row per seed, duplicates allowed) under
  /// `snapshot`. Bitwise-equal to any other evaluation of the same seeds
  /// under the same (snapshot, sample_seed, fanouts), cached or not.
  /// `graph_epoch` keys cache traffic to the serving graph's delta epoch —
  /// rows computed before a delta can never answer a lookup after it.
  void infer(const ModelSnapshot& snapshot, std::span<const vid_t> seeds, DenseMatrix& logits,
             std::uint64_t graph_epoch = 0);

 private:
  struct Level {
    std::unordered_map<vid_t, std::uint32_t> index;  // vertex -> row in values
    std::vector<real_t> values;                      // index.size() * dim rows
    std::vector<vid_t> pending;                      // rows still to compute
    std::vector<std::uint32_t> pending_row;
    std::vector<MiniBatch> blocks;                   // one-hop plan per pending

    void clear() {
      index.clear();
      values.clear();
      pending.clear();
      pending_row.clear();
      blocks.clear();
    }
  };

  /// Row of h_l(v) in levels_[l], discovering (and cache-probing) it on
  /// first touch.
  std::uint32_t resolve(int level, vid_t v, std::uint64_t version, std::size_t dim);

  const Dataset& dataset_;
  std::vector<int> fanouts_;
  std::uint64_t sample_seed_;
  EmbedCache* cache_;
  ShardedFeatureCache* feature_cache_;
  EmbedWork* work_;
  std::uint64_t graph_epoch_ = 0;  // set per infer(); keys cache traffic

  std::vector<Level> levels_;
  ForwardScratch fwd_scratch_;
  DenseMatrix inputs_, layer_out_;
};

}  // namespace distgnn::serve
