// Generic sharded LRU — the storage engine shared by ShardedFeatureCache
// (raw feature rows) and EmbedCache (per-layer embedding rows).
//
// Extracted from ShardedFeatureCache so the serving tier has exactly one
// implementation of the sharded-LRU discipline: keys are hashed over
// `num_shards` independent LRUs, each behind its own mutex, so concurrent
// server workers rarely contend. Slot values are recycled in place (a
// std::vector<real_t> slot keeps its capacity across reuse), so steady-state
// operation performs no allocation. The object spaces are fixed at
// construction, one CacheCounters each: handles into the owning tier's
// MetricsRegistry that count with cachesim's definitions — accesses, misses,
// and `charge_bytes` of fill traffic per miss — so every cache in the tree
// reports comparable numbers, and the scrape is the only book they live in.
//
// Thread-safety: all public methods are safe to call concurrently; fill/use
// callbacks run under the owning shard's lock, so they must not re-enter the
// cache or block on communication (callers with a round-trip fill use the
// lookup()/insert() split instead, exactly as ShardedFeatureCache documents).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cachesim/lru_cache.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

/// Default key spreader: splitmix64 over std::hash, so sequential vertex ids
/// land on distinct shards (std::hash is identity for integers on libstdc++).
template <typename K>
struct SplitmixHash {
  std::uint64_t operator()(const K& key) const {
    return splitmix64(static_cast<std::uint64_t>(std::hash<K>{}(key)));
  }
};

/// One object space's counters, as handles into its tier's registry:
/// distgnn_<layer>_cache_{accesses,misses,fill_bytes}_total, labelled
/// cache="<kind>" and then `labels`.
struct CacheCounters {
  CacheCounters(obs::MetricsRegistry& registry, const std::string& layer, const std::string& kind,
                obs::Labels labels = {})
      : accesses(registry.counter("distgnn_" + layer + "_cache_accesses_total",
                                  with_kind(kind, labels))),
        misses(registry.counter("distgnn_" + layer + "_cache_misses_total",
                                with_kind(kind, labels))),
        fill_bytes(registry.counter("distgnn_" + layer + "_cache_fill_bytes_total",
                                    with_kind(kind, labels))) {}

  /// The CacheStats view a tier's stats() reports (fill bytes as
  /// bytes_read). Misses are read first: a miss is counted after its access.
  CacheStats read() const {
    CacheStats s;
    s.misses = misses.value();
    s.accesses = accesses.value();
    s.bytes_read = fill_bytes.value();
    return s;
  }

  obs::Counter& accesses;
  obs::Counter& misses;
  obs::Counter& fill_bytes;

 private:
  static obs::Labels with_kind(const std::string& kind, const obs::Labels& labels) {
    obs::Labels out{{"cache", kind}};
    out.insert(out.end(), labels.begin(), labels.end());
    return out;
  }
};

template <typename K, typename V, typename Hash = SplitmixHash<K>>
class ShardedLru {
 public:
  /// `capacity_entries` is split evenly over shards (each shard holds at
  /// least one slot). `charge_bytes` is the fill-traffic charge per
  /// miss/insert — the logical size of one cached object. `spaces[i]`
  /// counts object space i; a space outside them throws std::out_of_range.
  ShardedLru(std::uint64_t capacity_entries, int num_shards, std::uint64_t charge_bytes,
             std::vector<CacheCounters> spaces)
      : charge_bytes_(charge_bytes), spaces_(std::move(spaces)) {
    if (num_shards < 1) throw std::invalid_argument("ShardedLru: need >= 1 shard");
    if (spaces_.empty()) throw std::invalid_argument("ShardedLru: need >= 1 object space");
    entries_per_shard_ = std::max<std::uint64_t>(
        1, capacity_entries / static_cast<std::uint64_t>(num_shards));
    shards_.reserve(static_cast<std::size_t>(num_shards));
    for (int i = 0; i < num_shards; ++i) {
      auto shard = std::make_unique<Shard>();
      // Construction-time population still takes the shard lock: nothing can
      // contend yet, and it keeps the guarded-member accesses provable.
      {
        util::MutexLock lock(shard->mutex);
        shard->slots.resize(entries_per_shard_);
        shard->index.resize(spaces_.size());
        shard->free_list.reserve(entries_per_shard_);
        for (std::uint64_t e = 0; e < entries_per_shard_; ++e)
          shard->free_list.push_back(static_cast<int>(entries_per_shard_ - 1 - e));
      }
      shards_.push_back(std::move(shard));
    }
  }

  /// On hit: use(const V&) under the shard lock, entry becomes MRU. On miss:
  /// the LRU slot is reclaimed, fill(V&) produces the value in place, then
  /// use(const V&). Returns true on hit. Concurrent requests for the same
  /// key fill once (the fill runs under the shard lock).
  template <typename Fill, typename Use>
  bool get_or_fill(int space, const K& key, Fill&& fill, Use&& use) {
    const CacheCounters& counters = counters_for(space);
    counters.accesses.add();
    Shard& s = shard_for(key);
    util::MutexLock lock(s.mutex);
    if (const int idx = find_and_touch(s, space, key); idx >= 0) {
      use(static_cast<const V&>(s.slots[static_cast<std::size_t>(idx)].value));
      return true;
    }
    counters.misses.add();
    counters.fill_bytes.add(charge_bytes_);  // miss fill traffic, as in cachesim
    const int idx = fill_slot(s, space, key, fill);
    use(static_cast<const V&>(s.slots[static_cast<std::size_t>(idx)].value));
    return false;
  }

  /// Split miss path for callers whose fill is a communication round-trip
  /// that must not run under the shard lock: lookup() counts the access and,
  /// on miss, the miss; the caller then fetches and insert()s, which charges
  /// the fill bytes. A lookup-miss + insert pair charges the same counters
  /// as one get_or_fill miss.
  template <typename Use>
  bool lookup(int space, const K& key, Use&& use) {
    const CacheCounters& counters = counters_for(space);
    counters.accesses.add();
    Shard& s = shard_for(key);
    util::MutexLock lock(s.mutex);
    const int idx = find_and_touch(s, space, key);
    if (idx < 0) {
      counters.misses.add();
      return false;
    }
    use(static_cast<const V&>(s.slots[static_cast<std::size_t>(idx)].value));
    return true;
  }

  /// Retains fill()'s value for `key`; a no-op (beyond the byte charge) when
  /// the key is already resident (raced fill).
  template <typename Fill>
  void insert(int space, const K& key, Fill&& fill) {
    counters_for(space).fill_bytes.add(charge_bytes_);
    Shard& s = shard_for(key);
    util::MutexLock lock(s.mutex);
    if (index_for(s, space).count(key) > 0) return;  // raced fill: already resident
    fill_slot(s, space, key, fill);
  }

  /// Drops every entry (hot-swap invalidation); the counters keep counting.
  void invalidate() {
    for (auto& shard : shards_) {
      util::MutexLock lock(shard->mutex);
      while (shard->head >= 0) evict_slot(*shard, shard->head);
    }
  }

  /// Drops one entry (targeted invalidation — a feature-row update dirties
  /// exactly that key). Returns true when an entry was resident and evicted.
  bool erase(int space, const K& key) {
    Shard& s = shard_for(key);
    util::MutexLock lock(s.mutex);
    auto& index = index_for(s, space);
    const auto it = index.find(key);
    if (it == index.end()) return false;
    evict_slot(s, it->second);
    return true;
  }

  /// Visits every resident entry of `space`, letting `fn(K&)` rewrite the
  /// key in place: return false to evict the entry, true to keep it under
  /// the (possibly rewritten) key. The epoch-advance path uses this to
  /// promote clean entries to a new graph epoch and drop dirty ones in one
  /// sweep. Rewritten keys MUST keep their hash (same shard) — the entry is
  /// re-indexed within its shard only. A rewrite that collides with a key
  /// already resident in the shard drops the visited entry instead.
  template <typename Fn>
  void retag(int space, const Fn& fn) {
    std::vector<int> resident;
    for (auto& shard : shards_) {
      Shard& s = *shard;
      util::MutexLock lock(s.mutex);
      auto& index = index_for(s, space);
      // Collect first: fn rewrites keys, which would invalidate a live
      // iteration over the index.
      resident.clear();
      resident.reserve(index.size());
      for (const auto& [key, idx] : index) resident.push_back(idx);
      for (const int idx : resident) {
        Slot& slot = s.slots[static_cast<std::size_t>(idx)];
        const K old_key = slot.key;
        if (!fn(slot.key)) {
          // evict_slot erases the index through slot.key, so the old key
          // must be back in place before it runs.
          slot.key = old_key;
          evict_slot(s, idx);
          continue;
        }
        if (slot.key == old_key) continue;
        index.erase(old_key);
        if (!index.emplace(slot.key, idx).second) {
          // Collision with a resident key: the old key is already erased, so
          // retire the slot directly rather than via evict_slot.
          unlink(s, idx);
          s.free_list.push_back(idx);
        }
      }
    }
  }

  std::uint64_t capacity_entries() const { return entries_per_shard_ * shards_.size(); }

 private:
  struct Slot {
    K key{};
    int space = 0;
    int prev = -1;
    int next = -1;
    V value{};
  };

  struct Shard {
    mutable util::Mutex mutex;
    std::vector<Slot> slots GUARDED_BY(mutex);
    std::vector<int> free_list GUARDED_BY(mutex);
    int head GUARDED_BY(mutex) = -1;
    int tail GUARDED_BY(mutex) = -1;
    // One index per object space, sized at construction.
    std::vector<std::unordered_map<K, int, Hash>> index GUARDED_BY(mutex);
  };

  Shard& shard_for(const K& key) {
    return *shards_[static_cast<std::size_t>(Hash{}(key) % shards_.size())];
  }

  const CacheCounters& counters_for(int space) const {
    if (space < 0 || static_cast<std::size_t>(space) >= spaces_.size())
      throw std::out_of_range("ShardedLru: space outside the constructed set");
    return spaces_[static_cast<std::size_t>(space)];
  }

  /// Throws std::out_of_range for a space outside the constructed set.
  static std::unordered_map<K, int, Hash>& index_for(Shard& s, int space) REQUIRES(s.mutex) {
    return s.index.at(static_cast<std::size_t>(space));
  }

  static void unlink(Shard& s, int idx) REQUIRES(s.mutex) {
    Slot& e = s.slots[static_cast<std::size_t>(idx)];
    if (e.prev >= 0) s.slots[static_cast<std::size_t>(e.prev)].next = e.next;
    else s.head = e.next;
    if (e.next >= 0) s.slots[static_cast<std::size_t>(e.next)].prev = e.prev;
    else s.tail = e.prev;
    e.prev = e.next = -1;
  }

  static void push_front(Shard& s, int idx) REQUIRES(s.mutex) {
    Slot& e = s.slots[static_cast<std::size_t>(idx)];
    e.prev = -1;
    e.next = s.head;
    if (s.head >= 0) s.slots[static_cast<std::size_t>(s.head)].prev = idx;
    s.head = idx;
    if (s.tail < 0) s.tail = idx;
  }

  static void evict_slot(Shard& s, int idx) REQUIRES(s.mutex) {
    Slot& e = s.slots[static_cast<std::size_t>(idx)];
    index_for(s, e.space).erase(e.key);
    unlink(s, idx);
    s.free_list.push_back(idx);
  }

  /// Finds `key` and makes it MRU; -1 on miss.
  static int find_and_touch(Shard& s, int space, const K& key) REQUIRES(s.mutex) {
    auto& index = index_for(s, space);
    const auto it = index.find(key);
    if (it == index.end()) return -1;
    const int idx = it->second;
    unlink(s, idx);
    push_front(s, idx);
    return idx;
  }

  /// Reclaims a slot (evicting the LRU entry when full), runs `fill` into
  /// it, then binds it to (space, key) as MRU. The index is published only
  /// after the fill succeeds: a throwing fill returns the slot to the free
  /// list, so no key can ever resolve to a recycled victim's stale bytes.
  template <typename Fill>
  static int fill_slot(Shard& s, int space, const K& key, const Fill& fill) REQUIRES(s.mutex) {
    if (s.free_list.empty()) evict_slot(s, s.tail);
    const int idx = s.free_list.back();
    s.free_list.pop_back();
    Slot& slot = s.slots[static_cast<std::size_t>(idx)];
    try {
      fill(slot.value);
    } catch (...) {
      s.free_list.push_back(idx);
      throw;
    }
    slot.key = key;
    slot.space = space;
    index_for(s, space).emplace(key, idx);
    push_front(s, idx);
    return idx;
  }

  std::uint64_t charge_bytes_;
  std::vector<CacheCounters> spaces_;
  std::uint64_t entries_per_shard_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace distgnn::serve
