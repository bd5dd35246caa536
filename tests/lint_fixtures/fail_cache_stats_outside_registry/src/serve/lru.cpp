#include "cachesim/lru_cache.hpp"
namespace distgnn::serve {
void on_hit(CacheStats& stats) {
  ++stats.accesses;  // finding: a cache book beside the registry
}
}  // namespace distgnn::serve
