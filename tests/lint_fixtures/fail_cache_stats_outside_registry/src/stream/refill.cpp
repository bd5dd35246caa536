#include "cachesim/lru_cache.hpp"
namespace distgnn::stream {
void on_fill(CacheStats* stats, unsigned long bytes) {
  stats->bytes_read += bytes;  // finding: fill traffic counts in the registry too
}
}  // namespace distgnn::stream
