#include "comm/world.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <thread>

namespace distgnn {

World::World(int num_ranks) : num_ranks_(num_ranks) {
  if (num_ranks < 1) throw std::invalid_argument("World: num_ranks must be >= 1");
  mailboxes_.resize(static_cast<std::size_t>(num_ranks));
  for (auto& mb : mailboxes_) mb = std::make_unique<Mailbox>();
  stats_.resize(static_cast<std::size_t>(num_ranks));
  collective_slots_.assign(static_cast<std::size_t>(num_ranks), nullptr);
}

World::~World() = default;

void World::barrier_wait() {
  util::MutexLock lock(barrier_mutex_);
  const std::uint64_t my_generation = barrier_generation_;
  if (++barrier_arrived_ == num_ranks_) {
    barrier_arrived_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    while (barrier_generation_ == my_generation) barrier_cv_.wait(lock);
  }
}

void World::run(const std::function<void(Communicator&)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks_));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_ranks_));

  for (int r = 0; r < num_ranks_; ++r) {
    threads.emplace_back([&, r] {
      Communicator comm(*this, r);
      try {
        body(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& err : errors)
    if (err) std::rethrow_exception(err);
}

void World::launch(int num_ranks, const std::function<void(Communicator&)>& body) {
  World world(num_ranks);
  world.run(body);
}

void Communicator::barrier() { world_.barrier_wait(); }

template <typename T>
void Communicator::allreduce_impl(std::span<T> data) {
  auto& slots = world_.collective_slots_;
  slots[static_cast<std::size_t>(rank_)] = data.data();
  world_.barrier_wait();
  // Every rank reduces a disjoint stripe of the vector across all ranks into
  // rank 0's buffer, then all copy the result out: a simple two-phase
  // reduce-broadcast with O(n/P) work per rank.
  const std::size_t n = data.size();
  const std::size_t stripe = (n + static_cast<std::size_t>(size()) - 1) / static_cast<std::size_t>(size());
  const std::size_t begin = std::min(n, static_cast<std::size_t>(rank_) * stripe);
  const std::size_t end = std::min(n, begin + stripe);
  T* root = static_cast<T*>(world_.collective_slots_[0]);
  for (int r = 1; r < size(); ++r) {
    const T* other = static_cast<T*>(world_.collective_slots_[static_cast<std::size_t>(r)]);
    for (std::size_t i = begin; i < end; ++i) root[i] += other[i];
  }
  world_.barrier_wait();
  if (rank_ != 0) std::copy(root, root + n, data.data());
  auto& st = world_.stats_[static_cast<std::size_t>(rank_)];
  ++st.allreduce_calls;
  st.allreduce_bytes += n * sizeof(T);
  world_.barrier_wait();
}

void Communicator::allreduce_sum(std::span<real_t> data) { allreduce_impl(data); }
void Communicator::allreduce_sum(std::span<double> data) { allreduce_impl(data); }

void Communicator::allreduce_max(std::span<real_t> data) {
  auto& slots = world_.collective_slots_;
  slots[static_cast<std::size_t>(rank_)] = data.data();
  world_.barrier_wait();
  const std::size_t n = data.size();
  const std::size_t stripe = (n + static_cast<std::size_t>(size()) - 1) / static_cast<std::size_t>(size());
  const std::size_t begin = std::min(n, static_cast<std::size_t>(rank_) * stripe);
  const std::size_t end = std::min(n, begin + stripe);
  real_t* root = static_cast<real_t*>(world_.collective_slots_[0]);
  for (int r = 1; r < size(); ++r) {
    const real_t* other = static_cast<real_t*>(world_.collective_slots_[static_cast<std::size_t>(r)]);
    for (std::size_t i = begin; i < end; ++i) root[i] = std::max(root[i], other[i]);
  }
  world_.barrier_wait();
  if (rank_ != 0) std::copy(root, root + n, data.data());
  world_.barrier_wait();
}

void Communicator::broadcast(std::span<real_t> data, int root) {
  auto& slots = world_.collective_slots_;
  slots[static_cast<std::size_t>(rank_)] = data.data();
  world_.barrier_wait();
  if (rank_ != root) {
    const real_t* src = static_cast<real_t*>(world_.collective_slots_[static_cast<std::size_t>(root)]);
    std::copy(src, src + data.size(), data.data());
  }
  world_.barrier_wait();
}

void Communicator::broadcast_v(std::vector<real_t>& data, int root) {
  const auto sizes = allgather(static_cast<std::int64_t>(data.size()));
  data.resize(static_cast<std::size_t>(sizes[static_cast<std::size_t>(root)]));
  broadcast(std::span<real_t>(data), root);
  if (rank_ == root) {
    // Count the fan-out the way send() would: one copy per receiving rank.
    auto& st = world_.stats_[static_cast<std::size_t>(rank_)];
    st.messages_sent += static_cast<std::uint64_t>(size() - 1);
    st.bytes_sent += static_cast<std::uint64_t>(size() - 1) * data.size() * sizeof(real_t);
  }
}

std::vector<std::int64_t> Communicator::allgather(std::int64_t value) {
  // Reuse the slot mechanism with a per-rank stack value.
  thread_local std::int64_t local;
  local = value;
  auto& slots = world_.collective_slots_;
  slots[static_cast<std::size_t>(rank_)] = &local;
  world_.barrier_wait();
  std::vector<std::int64_t> out(static_cast<std::size_t>(size()));
  for (int r = 0; r < size(); ++r)
    out[static_cast<std::size_t>(r)] = *static_cast<std::int64_t*>(world_.collective_slots_[static_cast<std::size_t>(r)]);
  world_.barrier_wait();
  return out;
}

void Communicator::send(int dest, int tag, std::vector<real_t> payload) {
  if (dest < 0 || dest >= size()) throw std::out_of_range("send: bad destination rank");
  auto& st = world_.stats_[static_cast<std::size_t>(rank_)];
  ++st.messages_sent;
  if (dest != rank_) st.bytes_sent += payload.size() * sizeof(real_t);
  World::Mailbox& mb = *world_.mailboxes_[static_cast<std::size_t>(dest)];
  {
    util::MutexLock lock(mb.mutex);
    mb.queues[{rank_, tag}].push_back(std::move(payload));
  }
  mb.cv.notify_all();
}

std::vector<real_t> Communicator::recv(int source, int tag) {
  World::Mailbox& mb = *world_.mailboxes_[static_cast<std::size_t>(rank_)];
  util::MutexLock lock(mb.mutex);
  auto& queue = mb.queues[{source, tag}];
  while (queue.empty()) mb.cv.wait(lock);
  std::vector<real_t> payload = std::move(queue.front());
  queue.pop_front();
  return payload;
}

std::optional<std::vector<real_t>> Communicator::try_recv(int source, int tag) {
  World::Mailbox& mb = *world_.mailboxes_[static_cast<std::size_t>(rank_)];
  util::MutexLock lock(mb.mutex);
  const auto it = mb.queues.find({source, tag});
  if (it == mb.queues.end() || it->second.empty()) return std::nullopt;
  std::vector<real_t> payload = std::move(it->second.front());
  it->second.pop_front();
  return payload;
}

std::size_t Communicator::pending_messages() const {
  World::Mailbox& mb = *world_.mailboxes_[static_cast<std::size_t>(rank_)];
  util::MutexLock lock(mb.mutex);
  std::size_t count = 0;
  for (const auto& [channel, queue] : mb.queues) count += queue.size();
  return count;
}

void allreduce_gradients(Communicator& comm, std::span<const ParamRef> params) {
  std::size_t total = 0;
  for (const ParamRef& p : params) total += p.size;
  std::vector<real_t> flat(total);
  std::size_t off = 0;
  for (const ParamRef& p : params) {
    std::copy(p.grad, p.grad + p.size, flat.data() + off);
    off += p.size;
  }
  comm.allreduce_sum(std::span<real_t>(flat));
  off = 0;
  for (const ParamRef& p : params) {
    std::copy(flat.data() + off, flat.data() + off + p.size, p.grad);
    off += p.size;
  }
}

}  // namespace distgnn
