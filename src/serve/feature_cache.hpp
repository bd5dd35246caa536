// Sharded LRU feature cache for the inference servers.
//
// Unlike cachesim/LruCache — a *model* that only counts — this cache really
// stores feature vectors: a hit copies the cached bytes out, a miss runs the
// caller's fill function (feature-matrix row copy, or a point-to-point fetch
// from the owning rank in sharded mode) and retains the result. Entries are
// fixed-width (`dim` floats) and the LRU discipline matches cachesim so the
// two report comparable CacheStats.
//
// Storage and sharding live in the generic ShardedLru (shared with the
// embedding cache): keys are hashed over `num_shards` independent LRUs, each
// behind its own mutex, so concurrent server workers rarely contend. Each
// object space (space 0 = local features, space 1 = halo/remote rows by
// convention) counts into the CacheCounters its tier passes in, which the
// tier's stats() and scrape() read.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/sharded_lru.hpp"
#include "util/types.hpp"

namespace distgnn::serve {

class ShardedFeatureCache {
 public:
  /// Fill callback: write exactly `dim` floats for the requested key.
  using FillFn = std::function<void(real_t*)>;

  /// capacity_bytes is split evenly over shards; each shard holds at least
  /// one entry of `dim` floats. `spaces[i]` counts object space i, charging
  /// dim * sizeof(real_t) fill bytes per miss.
  ShardedFeatureCache(std::uint64_t capacity_bytes, std::size_t dim,
                      std::vector<CacheCounters> spaces, int num_shards = 8);

  /// Copies the vector for (space, key) into `out` (dim floats). On a miss,
  /// `fill` produces the vector, which is cached and copied out. Returns true
  /// on hit. Thread-safe; the fill runs under the shard lock so concurrent
  /// requests for the same key fetch once.
  bool get_or_fill(int space, std::uint64_t key, real_t* out, const FillFn& fill);

  /// Split miss path for callers whose fill is a communication round-trip
  /// that must not run under the shard lock (the sharded server's halo
  /// fetch): lookup() counts the access and, on miss, the miss; the caller
  /// then fetches and insert()s, which charges the fill bytes. A lookup-miss
  /// + insert pair charges the same counters as one get_or_fill miss.
  bool lookup(int space, std::uint64_t key, real_t* out);
  void insert(int space, std::uint64_t key, const real_t* row);

  /// Drops every entry (hot-swap invalidation); the counters keep counting.
  void invalidate();

  /// Drops one entry (a streamed feature-row update dirties exactly that
  /// key). Returns true when an entry was resident and evicted.
  bool erase(int space, std::uint64_t key);

  std::size_t dim() const { return dim_; }
  std::uint64_t capacity_entries() const { return lru_.capacity_entries(); }

 private:
  static std::uint64_t entries_for(std::uint64_t capacity_bytes, std::size_t dim,
                                   int num_shards);

  std::size_t dim_;
  ShardedLru<std::uint64_t, std::vector<real_t>> lru_;
};

}  // namespace distgnn::serve
