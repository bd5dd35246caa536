// Fixture: control atomics in serving, and counters through registry handles.
// Mentioning hits_.fetch_add(1) in a comment or a string must not trip the rule.
#include <atomic>
#include "obs/metrics.hpp"
namespace distgnn::serve {
const char* kNote = "hits_.fetch_add(1)";
std::atomic<unsigned long> next_id_{0}, in_flight_{0};
std::atomic<unsigned long> outstanding_[2];
unsigned long admit(obs::Counter& submitted, int r) {
  submitted.add();
  in_flight_.fetch_add(1, std::memory_order_release);
  outstanding_[static_cast<unsigned>(r)].fetch_sub(1);
  return next_id_.fetch_add(1);
}
}  // namespace distgnn::serve
