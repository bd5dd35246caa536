#include "serve/feature_cache.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace distgnn::serve {

std::uint64_t ShardedFeatureCache::entries_for(std::uint64_t capacity_bytes, std::size_t dim,
                                               int num_shards) {
  if (dim == 0) throw std::invalid_argument("ShardedFeatureCache: dim must be > 0");
  if (num_shards < 1) throw std::invalid_argument("ShardedFeatureCache: need >= 1 shard");
  const std::uint64_t entry_bytes = static_cast<std::uint64_t>(dim) * sizeof(real_t);
  return std::max<std::uint64_t>(static_cast<std::uint64_t>(num_shards),
                                 capacity_bytes / entry_bytes);
}

ShardedFeatureCache::ShardedFeatureCache(std::uint64_t capacity_bytes, std::size_t dim,
                                         std::vector<CacheCounters> spaces, int num_shards)
    : dim_(dim),
      lru_(entries_for(capacity_bytes, dim, num_shards), num_shards,
           static_cast<std::uint64_t>(dim) * sizeof(real_t), std::move(spaces)) {}

bool ShardedFeatureCache::get_or_fill(int space, std::uint64_t key, real_t* out,
                                      const FillFn& fill) {
  const std::size_t row_bytes = dim_ * sizeof(real_t);
  return lru_.get_or_fill(
      space, key,
      [&](std::vector<real_t>& row) {
        row.resize(dim_);  // recycled slots keep their capacity: no allocation
        fill(row.data());
      },
      [&](const std::vector<real_t>& row) { std::memcpy(out, row.data(), row_bytes); });
}

bool ShardedFeatureCache::lookup(int space, std::uint64_t key, real_t* out) {
  return lru_.lookup(space, key, [&](const std::vector<real_t>& row) {
    std::memcpy(out, row.data(), dim_ * sizeof(real_t));
  });
}

void ShardedFeatureCache::insert(int space, std::uint64_t key, const real_t* row) {
  lru_.insert(space, key, [&](std::vector<real_t>& slot) {
    slot.assign(row, row + dim_);
  });
}

void ShardedFeatureCache::invalidate() { lru_.invalidate(); }

bool ShardedFeatureCache::erase(int space, std::uint64_t key) { return lru_.erase(space, key); }

}  // namespace distgnn::serve
