#include <atomic>
namespace distgnn::serve {
std::atomic<unsigned long> served_{0};
void on_reply() { served_.fetch_add(1); }  // finding: a second book beside the registry
}  // namespace distgnn::serve
