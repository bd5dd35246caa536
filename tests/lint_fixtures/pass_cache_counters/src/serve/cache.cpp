// Fixture: cache traffic through registry handles, and CacheStats as a view.
// Mentioning ++stats.accesses in a comment or a string must not trip the rule.
#include "cachesim/lru_cache.hpp"
#include "obs/metrics.hpp"
namespace distgnn::serve {
const char* kNote = "stats.misses += 1";
CacheStats view(obs::Counter& accesses, obs::Counter& misses, const CacheStats& before) {
  accesses.add();
  misses.add();
  CacheStats out;
  out.accesses = accesses.value() - before.accesses;
  out.misses = misses.value() - before.misses;
  out += before;  // folding whole views is not a tally
  return out;
}
}  // namespace distgnn::serve
