// Fixture: the cache simulator keeps its own CacheStats; the rule covers
// serving and stream code only.
namespace distgnn {
struct CacheStats {
  unsigned long accesses = 0, misses = 0, bytes_read = 0;
  void touch(bool miss, unsigned long bytes) {
    ++accesses;
    if (miss) {
      misses++;
      bytes_read += bytes;
    }
  }
};
}  // namespace distgnn
