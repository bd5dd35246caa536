#include "serve/replica_group.hpp"

#include <cstring>
#include <stdexcept>

namespace distgnn::serve {

ReplicaGroup::ReplicaGroup(const Dataset& dataset, ServeConfig config, int num_replicas)
    : ReplicaGroup(dataset, num_replicas, [&](int) {
        return std::make_unique<InferenceServer>(dataset, config);
      }) {}

ReplicaGroup::ReplicaGroup(const Dataset& dataset, int num_replicas,
                           const ReplicaFactory& factory)
    : dataset_(dataset), num_vertices_(dataset.num_vertices()) {
  if (num_replicas < 1) throw std::invalid_argument("ReplicaGroup: need >= 1 replica");
  if (!factory) throw std::invalid_argument("ReplicaGroup: null replica factory");
  replicas_.reserve(static_cast<std::size_t>(num_replicas));
  for (int r = 0; r < num_replicas; ++r) {
    replicas_.push_back(factory(r));
    if (!replicas_.back()) throw std::invalid_argument("ReplicaGroup: factory returned null");
  }
}

ReplicaGroup::~ReplicaGroup() { stop(); }

void ReplicaGroup::under_barrier(const std::function<void()>& work,
                                 std::optional<std::uint64_t> version) {
  util::MutexLock lock(mutex_);
  while (publishing_) cv_.wait(lock);  // one barrier holder at a time
  publishing_ = true;
  // Drain every admitted request first. Replica queues are empty once
  // outstanding_ hits zero, so nothing in flight straddles the work.
  while (outstanding_ != 0) cv_.wait(lock);
  work();
  if (version) {
    version_ = *version;
    publishes_.add();
  }
  publishing_ = false;
  cv_.notify_all();
}

void ReplicaGroup::publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  if (!snapshot) throw std::invalid_argument("ReplicaGroup: null snapshot");
  under_barrier([&] { for (auto& replica : replicas_) replica->publish(snapshot); },
                snapshot->version());
}

void ReplicaGroup::publish_broadcast(std::shared_ptr<const ModelSnapshot> snapshot) {
  if (!snapshot) throw std::invalid_argument("ReplicaGroup: null snapshot");
  const ModelSpec spec = snapshot->spec();
  under_barrier(
      [&] {
        // One broadcast rank per replica: rank 0 is the publisher, every
        // other rank reconstructs from the flattened wire payload — the same
        // bytes a cross-process deployment would put on the network.
        World world(num_replicas());
        world.run([&](Communicator& comm) {
          const auto mine = broadcast_snapshot(
              comm, spec, comm.rank() == 0 ? snapshot : nullptr, /*root=*/0);
          replicas_[static_cast<std::size_t>(comm.rank())]->publish(mine);
        });
      },
      snapshot->version());
}

void ReplicaGroup::apply_graph_update(const std::function<void()>& apply,
                                      const GraphUpdateNotice& notice) {
  // The publish barrier without a version: graph epochs are orthogonal to
  // snapshot versions. Sequential delivery, replica 0 with the real apply.
  under_barrier([&] {
    for (std::size_t r = 0; r < replicas_.size(); ++r)
      replicas_[r]->apply_graph_update(r == 0 ? apply : std::function<void()>{}, notice);
  });
}

std::shared_ptr<const ModelSnapshot> ReplicaGroup::snapshot() const {
  return replicas_.front()->snapshot();
}

void ReplicaGroup::start() {
  for (auto& replica : replicas_) replica->start();
  util::MutexLock lock(mutex_);
  stopped_ = false;
}

void ReplicaGroup::stop() {
  // Close admission, then stop the replicas; each answers what it holds.
  // Their completions pump a fronting Router's staged requests to a replica
  // still running, or answer them as shed once none will take them.
  {
    util::MutexLock lock(mutex_);
    stopped_ = true;
  }
  for (auto& replica : replicas_) replica->stop();
}

int ReplicaGroup::pick_round_robin() {
  return static_cast<int>(rr_next_.fetch_add(1, std::memory_order_relaxed) %
                          static_cast<std::uint64_t>(replicas_.size()));
}

bool ReplicaGroup::place(vid_t vertex, const RequestMeta& meta,
                         std::function<void(InferResult&&)> done) {
  bool ok = false;
  try {
    ok = replica(pick_round_robin())
             .submit(vertex, meta, [this, user_done = std::move(done)](InferResult&& result) mutable {
               if (user_done) user_done(std::move(result));
               end_request();
             });
  } catch (...) {
    end_request();
    throw;
  }
  if (!ok) end_request();
  return ok;
}

bool ReplicaGroup::submit(vid_t vertex, const RequestMeta& meta,
                          std::function<void(InferResult&&)> done) {
  if (vertex < 0 || vertex >= num_vertices_)
    throw std::out_of_range("ReplicaGroup: vertex id out of range");
  return begin_requests(1) && place(vertex, meta, std::move(done));
}

std::vector<std::optional<InferResult>> ReplicaGroup::infer_batch(
    std::span<const vid_t> vertices, const RequestMeta& meta) {
  const std::size_t n = vertices.size();
  for (const vid_t v : vertices)
    if (v < 0 || v >= num_vertices_)
      throw std::out_of_range("ReplicaGroup: vertex id out of range");
  // Reserve the whole batch's admission slots atomically: a group publish
  // has to wait until every request below completes, so all admitted
  // answers come from one snapshot version.
  if (n == 0 || !begin_requests(n)) return std::vector<std::optional<InferResult>>(n);
  return collect_batch(n, [&](std::size_t i, std::function<void(InferResult&&)> done) {
    return place(vertices[i], meta, std::move(done));
  });
}

std::size_t ReplicaGroup::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& replica : replicas_) depth += replica->queue_depth();
  return depth;
}

void ReplicaGroup::drain() {
  {
    // Every admission slot back: nothing is staged in a Router or in flight
    // at a replica through the group.
    util::MutexLock lock(mutex_);
    while (outstanding_ != 0) cv_.wait(lock);
  }
  for (auto& replica : replicas_) replica->drain();
}

bool ReplicaGroup::accepting() const {
  {
    util::MutexLock lock(mutex_);
    if (stopped_) return false;
  }
  for (const auto& replica : replicas_)
    if (!replica->accepting()) return false;
  return true;
}

double ReplicaGroup::mean_service_seconds() const {
  // Unweighted mean of the members' own (cheap-by-contract) estimates: this
  // sits on the admission path when a group nests behind a Router, so it
  // must not materialize full stats() snapshots per request.
  double total = 0;
  int observed = 0;
  for (const auto& replica : replicas_) {
    const double mean = replica->mean_service_seconds();
    if (mean > 0) {
      total += mean;
      ++observed;
    }
  }
  return observed == 0 ? 0.0 : total / static_cast<double>(observed);
}

int ReplicaGroup::concurrency() const {
  int total = 0;
  for (const auto& replica : replicas_) total += replica->concurrency();
  return total;
}

std::uint64_t ReplicaGroup::version() const {
  util::MutexLock lock(mutex_);
  return version_;
}

BackendStats ReplicaGroup::stats() const {
  BackendStats g;
  for (const auto& replica : replicas_) g.absorb(replica->stats());
  return g;
}

void ReplicaGroup::scrape(obs::MetricsSnapshot& out) const {
  metrics_.scrape(out);
  for (const auto& replica : replicas_) replica->scrape(out);
}

void ReplicaGroup::collect_traces(std::vector<obs::Trace>& out) const {
  for (const auto& replica : replicas_) replica->collect_traces(out);
}

bool ReplicaGroup::begin_requests(std::size_t n) {
  util::MutexLock lock(mutex_);
  while (publishing_) cv_.wait(lock);
  if (stopped_) return false;
  outstanding_ += n;
  return true;
}

void ReplicaGroup::end_request() {
  util::MutexLock lock(mutex_);
  --outstanding_;
  if (outstanding_ == 0) cv_.notify_all();
}

std::shared_ptr<const ModelSnapshot> broadcast_snapshot(
    Communicator& comm, const ModelSpec& spec,
    std::shared_ptr<const ModelSnapshot> snapshot, int root) {
  // Payload = flattened weights + a 2-float version trailer (the 64-bit
  // version travels as two bit-cast 32-bit halves, as the sharded halo
  // protocol does for vertex ids).
  std::vector<real_t> payload;
  if (comm.rank() == root) {
    if (!snapshot) throw std::invalid_argument("broadcast_snapshot: root has no snapshot");
    payload = snapshot->flatten();
    const std::uint64_t v = snapshot->version();
    const std::uint32_t lo = static_cast<std::uint32_t>(v);
    const std::uint32_t hi = static_cast<std::uint32_t>(v >> 32);
    real_t flo, fhi;
    std::memcpy(&flo, &lo, sizeof(lo));
    std::memcpy(&fhi, &hi, sizeof(hi));
    payload.push_back(flo);
    payload.push_back(fhi);
  }
  comm.broadcast_v(payload, root);
  if (comm.rank() == root) return snapshot;

  if (payload.size() < 2)
    throw std::runtime_error("broadcast_snapshot: truncated payload");
  std::uint32_t lo = 0, hi = 0;
  std::memcpy(&lo, &payload[payload.size() - 2], sizeof(lo));
  std::memcpy(&hi, &payload[payload.size() - 1], sizeof(hi));
  const std::uint64_t version = (static_cast<std::uint64_t>(hi) << 32) | lo;
  return ModelSnapshot::from_flat(
      spec, std::span<const real_t>(payload.data(), payload.size() - 2), version);
}

}  // namespace distgnn::serve
