// Fixture: the rank-exit rendezvous is a control atomic under src/stream/ too.
#include <atomic>
namespace distgnn::stream {
std::atomic<int>* done_ranks_ = nullptr;
void leave() { done_ranks_->fetch_add(1); }
}  // namespace distgnn::stream
