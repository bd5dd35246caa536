// Fixture: the registry itself increments its shards with fetch_add.
#include <atomic>
namespace distgnn::obs {
struct Counter {
  std::atomic<unsigned long> v{0};
  void add(unsigned long n = 1) { v.fetch_add(n); }
};
}  // namespace distgnn::obs
