#include "serve/router.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

RoutePolicy parse_route_policy(const std::string& name) {
  if (name == "round-robin" || name == "rr") return RoutePolicy::kRoundRobin;
  if (name == "least-outstanding" || name == "lo") return RoutePolicy::kLeastOutstanding;
  if (name == "p2c" || name == "power-of-two") return RoutePolicy::kPowerOfTwo;
  throw std::invalid_argument("unknown routing policy '" + name +
                              "' (round-robin | least-outstanding | p2c)");
}

std::string route_policy_name(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::kRoundRobin: return "round-robin";
    case RoutePolicy::kLeastOutstanding: return "least-outstanding";
    case RoutePolicy::kPowerOfTwo: return "p2c";
  }
  return "?";
}

Router::Router(ReplicaGroup& group, RoutePolicy policy, AdmissionConfig admission)
    : group_(group),
      policy_(policy),
      admission_(std::move(admission)),
      outstanding_(new std::atomic<std::uint64_t>[static_cast<std::size_t>(group.num_replicas())]),
      admitted_per_replica_(
          new std::atomic<std::uint64_t>[static_cast<std::size_t>(group.num_replicas())]) {
  for (int r = 0; r < group_.num_replicas(); ++r) {
    outstanding_[static_cast<std::size_t>(r)].store(0, std::memory_order_relaxed);
    admitted_per_replica_[static_cast<std::size_t>(r)].store(0, std::memory_order_relaxed);
  }
  {
    // Construction-time population still takes the lane lock: nothing can
    // contend yet, and it keeps the guarded-member accesses provable.
    util::MutexLock lock(stage_mutex_);
    for (const TenantSlo& slo : admission_.tenants) {
      TenantLane lane;
      lane.slo = slo;
      lane.bucket = TokenBucket(slo.rate_limit, slo.burst);
      lanes_.push_back(std::move(lane));
    }
    num_lanes_ = lanes_.size();
  }
  window_ = admission_.dispatch_window != 0
                ? admission_.dispatch_window
                : 2 * static_cast<std::size_t>(std::max(1, group_.concurrency()));
}

int Router::pick_replica() {
  const int n = group_.num_replicas();
  if (n == 1) return 0;
  switch (policy_) {
    case RoutePolicy::kRoundRobin:
      return static_cast<int>(rr_next_.fetch_add(1, std::memory_order_relaxed) %
                              static_cast<std::uint64_t>(n));
    case RoutePolicy::kLeastOutstanding: {
      int best = 0;
      std::uint64_t best_out = outstanding_[0].load(std::memory_order_relaxed);
      for (int r = 1; r < n; ++r) {
        const std::uint64_t out = outstanding_[static_cast<std::size_t>(r)].load(
            std::memory_order_relaxed);
        if (out < best_out) {
          best = r;
          best_out = out;
        }
      }
      return best;
    }
    case RoutePolicy::kPowerOfTwo: {
      // Two independent draws from a lock-free splitmix stream, then the
      // replica with the shallower queue wins (first draw on ties).
      const std::uint64_t d = p2c_draws_.fetch_add(2, std::memory_order_relaxed);
      const int a = static_cast<int>(splitmix64(admission_.seed ^ d) %
                                     static_cast<std::uint64_t>(n));
      const int b = static_cast<int>(splitmix64(admission_.seed ^ (d + 1)) %
                                     static_cast<std::uint64_t>(n));
      return group_.replica(b).queue_depth() < group_.replica(a).queue_depth() ? b : a;
    }
  }
  return 0;
}

bool Router::submit(vid_t vertex, std::function<void(InferResult&&)> done) {
  return submit(vertex, RequestMeta{}, std::move(done));
}

bool Router::submit(vid_t vertex, const RequestMeta& meta,
                    std::function<void(InferResult&&)> done) {
  // Validate before reserving an admission slot: a throw after
  // begin_requests would leak the slot and wedge every later publish().
  if (vertex < 0 || vertex >= group_.dataset().num_vertices())
    throw std::out_of_range("Router: vertex id out of range");
  if (num_lanes_ != 0 &&
      (meta.tenant < 0 || static_cast<std::size_t>(meta.tenant) >= num_lanes_))
    throw std::out_of_range("Router: unknown tenant id");
  group_.begin_requests(1);
  if (num_lanes_ == 0) return route_one(vertex, meta, std::move(done));
  return admit_one(vertex, meta, std::move(done));
}

bool Router::route_one(vid_t vertex, const RequestMeta& meta,
                       std::function<void(InferResult&&)> done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const int r = pick_replica();
  ServingBackend& replica = group_.replica(r);

  // Deadline admission: shed when the estimated completion time — queued
  // work ahead of us spread over the worker pool, plus our own service —
  // lands past the deadline. Estimates come from the replica's own observed
  // service rate, so the controller self-calibrates to the model and host.
  if (admission_.shed_deadlines && meta.deadline != ServeClock::time_point::max()) {
    const auto now = ServeClock::now();
    if (meta.deadline <= now) {
      shed_deadline_.fetch_add(1, std::memory_order_relaxed);
      group_.end_request();
      return false;
    }
    const double mean_service = replica.mean_service_seconds();
    if (mean_service > 0) {
      const double depth = static_cast<double>(
          outstanding_[static_cast<std::size_t>(r)].load(std::memory_order_relaxed));
      const double workers = static_cast<double>(replica.concurrency());
      const double estimate =
          mean_service * (depth / workers + 1.0) * admission_.estimate_margin;
      if (now + std::chrono::duration_cast<ServeClock::duration>(
                    std::chrono::duration<double>(estimate)) >
          meta.deadline) {
        shed_deadline_.fetch_add(1, std::memory_order_relaxed);
        group_.end_request();
        return false;
      }
    }
  }

  // Priority lane: once the target replica's queue is past the watermark,
  // low-priority work sheds so the burst headroom goes to the high lane.
  if (meta.priority == Priority::kLow && admission_.low_priority_depth > 0 &&
      replica.queue_depth() >= admission_.low_priority_depth) {
    shed_priority_.fetch_add(1, std::memory_order_relaxed);
    group_.end_request();
    return false;
  }

  outstanding_[static_cast<std::size_t>(r)].fetch_add(1, std::memory_order_relaxed);
  bool ok = false;
  try {
    ok = replica.submit(
        vertex, meta,
        [this, r, user_done = std::move(done)](InferResult&& result) mutable {
          outstanding_[static_cast<std::size_t>(r)].fetch_sub(1, std::memory_order_relaxed);
          completed_.fetch_add(1, std::memory_order_relaxed);
          if (user_done) user_done(std::move(result));
          group_.end_request();
        });
  } catch (...) {
    // Defensive: release the admission slot and the outstanding count so an
    // exotic throw cannot leave publish() waiting on a slot nobody holds.
    outstanding_[static_cast<std::size_t>(r)].fetch_sub(1, std::memory_order_relaxed);
    group_.end_request();
    throw;
  }
  if (!ok) {
    outstanding_[static_cast<std::size_t>(r)].fetch_sub(1, std::memory_order_relaxed);
    shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
    group_.end_request();
    return false;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  admitted_per_replica_[static_cast<std::size_t>(r)].fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Router::admit_one(vid_t vertex, RequestMeta meta, std::function<void(InferResult&&)> done) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  // The first shed reason that fires wins; the admission slot is released
  // after the lock is dropped (end_request may wake a publish barrier, and
  // the lock hierarchy forbids calling into the group while holding it).
  std::atomic<std::uint64_t>* shed_reason = nullptr;
  {
    util::MutexLock lock(stage_mutex_);
    TenantLane& lane = lanes_[static_cast<std::size_t>(meta.tenant)];
    ++lane.submitted;

    // Token-bucket budget first: an over-budget tenant sheds regardless of
    // system load — that is what keeps its overload out of everyone's queues.
    const auto now = ServeClock::now();
    if (!lane.bucket.try_take(now)) shed_reason = &shed_budget_;

    // The tenant's SLO deadline applies when the caller did not set one.
    if (!shed_reason && meta.deadline == ServeClock::time_point::max() &&
        lane.slo.deadline_seconds > 0)
      meta.deadline = now + std::chrono::duration_cast<ServeClock::duration>(
                                std::chrono::duration<double>(lane.slo.deadline_seconds));

    // Deadline admission against the whole tier: work ahead of us is
    // everything staged or in flight, spread over the group's workers.
    if (!shed_reason && admission_.shed_deadlines &&
        meta.deadline != ServeClock::time_point::max()) {
      if (meta.deadline <= now) {
        shed_reason = &shed_deadline_;
      } else {
        const double mean_service = group_.mean_service_seconds();
        if (mean_service > 0) {
          const double depth = static_cast<double>(inflight_ + total_staged_);
          const double workers = static_cast<double>(std::max(1, group_.concurrency()));
          const double estimate =
              mean_service * (depth / workers + 1.0) * admission_.estimate_margin;
          if (now + std::chrono::duration_cast<ServeClock::duration>(
                        std::chrono::duration<double>(estimate)) >
              meta.deadline)
            shed_reason = &shed_deadline_;
        }
      }
    }

    if (!shed_reason && meta.priority == Priority::kLow &&
        admission_.low_priority_depth > 0 &&
        inflight_ + total_staged_ >= admission_.low_priority_depth)
      shed_reason = &shed_priority_;

    if (!shed_reason && lane.staged.size() >= lane.slo.stage_capacity)
      shed_reason = &shed_queue_full_;

    if (shed_reason) {
      shed_reason->fetch_add(1, std::memory_order_relaxed);
      ++lane.shed;
    } else {
      lane.staged.push_back(Staged{vertex, meta, std::move(done)});
      ++total_staged_;
      pump_locked();
    }
  }
  if (shed_reason) {
    group_.end_request();
    return false;
  }
  return true;
}

void Router::pump_locked() {
  while (inflight_ < window_ && total_staged_ > 0) {
    // Smooth weighted round-robin over the non-empty lanes: every candidate
    // gains its weight, the highest accumulator dispatches and pays back the
    // round's total — served shares converge to the weight ratio without
    // bursts (nginx's smooth-WRR).
    TenantLane* best = nullptr;
    double total = 0;
    for (TenantLane& lane : lanes_) {
      if (lane.staged.empty()) continue;
      lane.wrr_current += lane.slo.weight;
      total += lane.slo.weight;
      if (!best || lane.wrr_current > best->wrr_current) best = &lane;
    }
    if (!best) return;
    best->wrr_current -= total;

    Staged st = std::move(best->staged.front());
    best->staged.pop_front();
    --total_staged_;
    const tenant_t tenant = st.meta.tenant;
    const int r = pick_replica();
    ServingBackend& replica = group_.replica(r);
    outstanding_[static_cast<std::size_t>(r)].fetch_add(1, std::memory_order_relaxed);
    ++inflight_;

    // The callback is recoverable on a failed push (shared_ptr), because
    // submit() consumes the std::function even when it returns false.
    auto done_ptr = std::make_shared<std::function<void(InferResult&&)>>(std::move(st.done));
    bool ok = false;
    try {
      ok = replica.submit(
          st.vertex, st.meta, [this, r, tenant, done_ptr](InferResult&& result) {
            outstanding_[static_cast<std::size_t>(r)].fetch_sub(1, std::memory_order_relaxed);
            completed_.fetch_add(1, std::memory_order_relaxed);
            if (*done_ptr) (*done_ptr)(std::move(result));
            group_.end_request();
            util::MutexLock relock(stage_mutex_);
            ++lanes_[static_cast<std::size_t>(tenant)].completed;
            --inflight_;
            pump_locked();
          });
    } catch (...) {
      ok = false;
    }
    if (!ok) {
      outstanding_[static_cast<std::size_t>(r)].fetch_sub(1, std::memory_order_relaxed);
      --inflight_;
      if (inflight_ > 0) {
        // A completion will re-pump; park the request back at the front so
        // its lane keeps its weighted-fair position.
        st.done = std::move(*done_ptr);
        best->staged.push_front(std::move(st));
        ++total_staged_;
      } else {
        // Progress guarantee: with nothing in flight nobody would re-pump,
        // so the request sheds. Only reachable when a replica queue is
        // smaller than the dispatch window.
        shed_queue_full_.fetch_add(1, std::memory_order_relaxed);
        ++lanes_[static_cast<std::size_t>(tenant)].shed;
        group_.end_request();
      }
      return;
    }
    admitted_.fetch_add(1, std::memory_order_relaxed);
    admitted_per_replica_[static_cast<std::size_t>(r)].fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<std::optional<InferResult>> Router::infer_batch(std::span<const vid_t> vertices,
                                                            const RequestMeta& meta) {
  const std::size_t n = vertices.size();
  std::vector<std::optional<InferResult>> results(n);
  if (n == 0) return results;
  for (const vid_t v : vertices)
    if (v < 0 || v >= group_.dataset().num_vertices())
      throw std::out_of_range("Router: vertex id out of range");
  if (num_lanes_ != 0 &&
      (meta.tenant < 0 || static_cast<std::size_t>(meta.tenant) >= num_lanes_))
    throw std::out_of_range("Router: unknown tenant id");

  // Reserve the whole batch's admission slots atomically: a group publish
  // now has to wait until every request below completes, so all admitted
  // answers come from one snapshot version.
  group_.begin_requests(n);

  util::Mutex mutex;
  util::CondVar cv;
  std::size_t pending = 0;
  for (std::size_t i = 0; i < n; ++i) {
    {
      util::MutexLock lock(mutex);
      ++pending;
    }
    const auto on_done = [&, i](InferResult&& result) {
      util::MutexLock lock(mutex);
      results[i] = std::move(result);
      if (--pending == 0) cv.notify_all();
    };
    const bool ok = num_lanes_ == 0 ? route_one(vertices[i], meta, on_done)
                                    : admit_one(vertices[i], meta, on_done);
    if (!ok) {
      util::MutexLock lock(mutex);
      if (--pending == 0) cv.notify_all();
    }
  }
  util::MutexLock lock(mutex);
  while (pending != 0) cv.wait(lock);
  return results;
}

RouterStats RouterStats::since(const RouterStats& base) const {
  RouterStats d;
  d.submitted = submitted - base.submitted;
  d.admitted = admitted - base.admitted;
  d.completed = completed - base.completed;
  d.shed_deadline = shed_deadline - base.shed_deadline;
  d.shed_priority = shed_priority - base.shed_priority;
  d.shed_queue_full = shed_queue_full - base.shed_queue_full;
  d.shed_budget = shed_budget - base.shed_budget;
  d.admitted_per_replica.resize(admitted_per_replica.size());
  for (std::size_t r = 0; r < admitted_per_replica.size(); ++r)
    d.admitted_per_replica[r] =
        admitted_per_replica[r] - (r < base.admitted_per_replica.size()
                                       ? base.admitted_per_replica[r]
                                       : 0);
  for (const TenantCounters& lane : tenants) {
    TenantCounters delta = lane;
    for (const TenantCounters& b : base.tenants) {
      if (b.tenant != lane.tenant) continue;
      delta.submitted -= b.submitted;
      delta.completed -= b.completed;
      delta.shed -= b.shed;
      break;
    }
    d.tenants.push_back(delta);
  }
  return d;
}

RouterStats Router::stats() const {
  RouterStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed_deadline = shed_deadline_.load(std::memory_order_relaxed);
  s.shed_priority = shed_priority_.load(std::memory_order_relaxed);
  s.shed_queue_full = shed_queue_full_.load(std::memory_order_relaxed);
  s.shed_budget = shed_budget_.load(std::memory_order_relaxed);
  s.admitted_per_replica.resize(static_cast<std::size_t>(group_.num_replicas()));
  for (int r = 0; r < group_.num_replicas(); ++r)
    s.admitted_per_replica[static_cast<std::size_t>(r)] =
        admitted_per_replica_[static_cast<std::size_t>(r)].load(std::memory_order_relaxed);
  {
    util::MutexLock lock(stage_mutex_);
    for (std::size_t t = 0; t < lanes_.size(); ++t) {
      TenantCounters lane;
      lane.tenant = static_cast<tenant_t>(t);
      lane.submitted = lanes_[t].submitted;
      lane.completed = lanes_[t].completed;
      lane.shed = lanes_[t].shed;
      s.tenants.push_back(lane);
    }
  }
  return s;
}

void Router::scrape(obs::MetricsSnapshot& out) const {
  const RouterStats s = stats();
  out.add_counter("distgnn_router_submitted_total", {}, static_cast<double>(s.submitted));
  out.add_counter("distgnn_router_admitted_total", {}, static_cast<double>(s.admitted));
  out.add_counter("distgnn_router_completed_total", {}, static_cast<double>(s.completed));
  out.add_counter("distgnn_router_shed_total", {{"reason", "deadline"}},
                  static_cast<double>(s.shed_deadline));
  out.add_counter("distgnn_router_shed_total", {{"reason", "priority"}},
                  static_cast<double>(s.shed_priority));
  out.add_counter("distgnn_router_shed_total", {{"reason", "queue_full"}},
                  static_cast<double>(s.shed_queue_full));
  out.add_counter("distgnn_router_shed_total", {{"reason", "budget"}},
                  static_cast<double>(s.shed_budget));
  for (const TenantCounters& lane : s.tenants) {
    const obs::Labels labels{{"tenant", std::to_string(lane.tenant)}};
    out.add_counter("distgnn_router_tenant_submitted_total", labels,
                    static_cast<double>(lane.submitted));
    out.add_counter("distgnn_router_tenant_completed_total", labels,
                    static_cast<double>(lane.completed));
    out.add_counter("distgnn_router_tenant_shed_total", labels,
                    static_cast<double>(lane.shed));
  }
  group_.scrape(out);
}

void Router::collect_traces(std::vector<obs::Trace>& out) const { group_.collect_traces(out); }

}  // namespace distgnn::serve
