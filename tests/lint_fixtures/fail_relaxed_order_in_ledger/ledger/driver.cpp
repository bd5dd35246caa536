#include <atomic>
#include <cstdint>
namespace distgnn::ledger {
std::atomic<std::int64_t> g_last{0};
std::int64_t last() { return g_last.load(std::memory_order_relaxed); }  // finding
}  // namespace distgnn::ledger
