#include <atomic>
namespace distgnn::stream {
std::atomic<unsigned long>* deltas_ = nullptr;
void on_publish() { deltas_->fetch_add(1); }  // finding: stream counters live in the registry too
}  // namespace distgnn::stream
