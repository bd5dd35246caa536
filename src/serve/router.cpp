#include "serve/router.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
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

namespace {

// Pessimism multiplier on the estimated wait (> 1 would shed earlier).
constexpr double kEstimateMargin = 1.0;
// Seed of the power-of-two-choices sampling stream.
constexpr std::uint64_t kP2cSeed = 99;

}  // namespace

Router::Router(ReplicaGroup& group, RoutePolicy policy, AdmissionConfig admission)
    : group_(group),
      num_vertices_(group.dataset().num_vertices()),
      policy_(policy),
      admission_(std::move(admission)),
      submitted_(metrics_.counter("distgnn_router_submitted_total")),
      completed_(metrics_.counter("distgnn_router_completed_total")),
      shed_deadline_(metrics_.counter("distgnn_router_shed_total", {{"reason", "deadline"}})),
      shed_priority_(metrics_.counter("distgnn_router_shed_total", {{"reason", "priority"}})),
      shed_queue_full_(metrics_.counter("distgnn_router_shed_total", {{"reason", "queue_full"}})),
      shed_budget_(metrics_.counter("distgnn_router_shed_total", {{"reason", "budget"}})) {
  for (int r = 0; r < group_.num_replicas(); ++r)
    admitted_.push_back(
        &metrics_.counter("distgnn_router_admitted_total", {{"replica", std::to_string(r)}}));
  // Configured tenants are scraped from the start, in id order; without
  // them a tenant's series appear with its first request.
  for (std::size_t t = 0; t < admission_.tenants.size(); ++t) {
    const int id = static_cast<int>(t);
    (void)tenant_submitted_.with(id);
    (void)tenant_completed_.with(id);
    (void)tenant_shed_.with(id);
  }
  {
    // Construction-time population still takes the lane lock: nothing can
    // contend yet, and it keeps the guarded-member accesses provable.
    util::MutexLock lock(stage_mutex_);
    dispatched_.assign(admitted_.size(), 0);
    for (const TenantSlo& slo : admission_.tenants.empty() ? std::vector<TenantSlo>{TenantSlo{}}
                                                           : admission_.tenants) {
      TenantLane lane;
      lane.slo = slo;
      lane.bucket = TokenBucket(slo.rate_limit, slo.burst);
      lanes_.push_back(std::move(lane));
    }
  }
  window_ = admission_.dispatch_window != 0 ? admission_.dispatch_window
                                            : std::numeric_limits<std::size_t>::max();
}

Router::~Router() {
  // Completions from here on skip the Router; none is inside it once the
  // lifeline's lock is ours. What is staged can then never dispatch.
  {
    util::MutexLock lock(lifeline_->mutex);
    lifeline_->alive = false;
  }
  std::vector<Staged> staged;
  {
    util::MutexLock lock(stage_mutex_);
    for (TenantLane& lane : lanes_) {
      for (Staged& st : lane.staged) staged.push_back(std::move(st));
      lane.staged.clear();
    }
    total_staged_ = 0;
  }
  for (Staged& st : staged) {
    shed_queue_full_.add();
    tenant_shed_.with(st.meta.tenant).add();
    shed_answer(st, group_);
  }
}

int Router::pick_replica() {
  const int n = group_.num_replicas();
  if (n == 1) return 0;
  switch (policy_) {
    case RoutePolicy::kRoundRobin:
      return static_cast<int>(rr_next_++ % static_cast<std::uint64_t>(n));
    case RoutePolicy::kLeastOutstanding:
      return static_cast<int>(std::min_element(dispatched_.begin(), dispatched_.end()) -
                              dispatched_.begin());
    case RoutePolicy::kPowerOfTwo: {
      // Two independent draws from a splitmix stream, then the replica with
      // the shallower queue wins (first draw on ties).
      const std::uint64_t d = p2c_draws_;
      p2c_draws_ += 2;
      const int a = static_cast<int>(splitmix64(kP2cSeed ^ d) % static_cast<std::uint64_t>(n));
      const int b =
          static_cast<int>(splitmix64(kP2cSeed ^ (d + 1)) % static_cast<std::uint64_t>(n));
      return group_.replica(b).queue_depth() < group_.replica(a).queue_depth() ? b : a;
    }
  }
  return 0;
}

std::size_t Router::lane_of(tenant_t tenant) const {
  if (admission_.tenants.empty()) return 0;  // one lane serves every tenant id
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= admission_.tenants.size())
    throw std::out_of_range("Router: unknown tenant id");
  return static_cast<std::size_t>(tenant);
}

bool Router::submit(vid_t vertex, std::function<void(InferResult&&)> done) {
  return submit(vertex, RequestMeta{}, std::move(done));
}

bool Router::submit(vid_t vertex, const RequestMeta& meta,
                    std::function<void(InferResult&&)> done) {
  // Validate before reserving an admission slot: a throw after
  // begin_requests would leak the slot and wedge every later publish().
  if (vertex < 0 || vertex >= num_vertices_)
    throw std::out_of_range("Router: vertex id out of range");
  (void)lane_of(meta.tenant);
  return admit_one(group_.begin_requests(1), vertex, meta, std::move(done));
}

bool Router::admit_one(bool slot, vid_t vertex, RequestMeta meta, Done done) {
  const tenant_t tenant = meta.tenant;
  submitted_.add();
  tenant_submitted_.with(tenant).add();
  // The first shed reason that fires wins. The admission slot is released
  // after the lock is dropped (end_request may wake a publish barrier, and
  // the lock hierarchy forbids calling into the group while holding it).
  obs::Counter* shed_reason = slot ? nullptr : &shed_queue_full_;
  if (!shed_reason) {
    util::MutexLock lock(stage_mutex_);
    TenantLane& lane = lanes_[lane_of(tenant)];

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
    // everything staged or in flight, spread over the group's workers. The
    // estimate self-calibrates from the observed service rate.
    const std::size_t backlog = inflight_ + total_staged_;
    if (!shed_reason && admission_.shed_deadlines &&
        meta.deadline != ServeClock::time_point::max()) {
      if (meta.deadline <= now) {
        shed_reason = &shed_deadline_;
      } else {
        const double mean_service = group_.mean_service_seconds();
        if (mean_service > 0) {
          const double workers = static_cast<double>(std::max(1, group_.concurrency()));
          const double estimate =
              mean_service * (static_cast<double>(backlog) / workers + 1.0) * kEstimateMargin;
          if (now + std::chrono::duration_cast<ServeClock::duration>(
                        std::chrono::duration<double>(estimate)) >
              meta.deadline)
            shed_reason = &shed_deadline_;
        }
      }
    }

    // Priority lane: past the watermark, low-priority work sheds so the
    // burst headroom goes to the high lane.
    if (!shed_reason && meta.priority == Priority::kLow && admission_.low_priority_depth > 0 &&
        backlog >= admission_.low_priority_depth)
      shed_reason = &shed_priority_;

    if (!shed_reason && lane.staged.size() >= lane.slo.stage_capacity)
      shed_reason = &shed_queue_full_;

    if (!shed_reason) {
      Staged st{vertex, std::move(meta), std::move(done), now};
      if (total_staged_ == 0 && inflight_ < window_) {
        // Window room and nobody waiting: dispatch now, and a bounce is the
        // caller's answer.
        if (!dispatch_locked(st)) shed_reason = &shed_queue_full_;
      } else {
        // No pump needed: a completion is due that will reach this request
        // (the window is full, or a bounced request re-parked behind one).
        lane.staged.push_back(std::move(st));
        ++total_staged_;
      }
    }
  }
  if (shed_reason) {
    shed_reason->add();
    tenant_shed_.with(tenant).add();
    if (slot) group_.end_request();
    return false;
  }
  return true;
}

bool Router::dispatch_locked(Staged& st) {
  const auto r = static_cast<std::size_t>(pick_replica());
  ++dispatched_[r];
  ++inflight_;
  // The callback is recoverable on a bounce (shared_ptr), because submit()
  // consumes the std::function even when it returns false.
  auto done = std::make_shared<Done>(std::move(st.done));
  // A leaf times a request from its own enqueue; the answer's latency also
  // covers the admission checks and any wait in the stage.
  const double staged_seconds =
      std::chrono::duration<double>(ServeClock::now() - st.admitted).count();
  bool ok = false;
  try {
    ok = group_.replica(static_cast<int>(r)).submit(
        st.vertex, st.meta,
        [this, life = lifeline_, &group = group_, r, tenant = st.meta.tenant, done,
         staged_seconds](InferResult&& result) {
          std::vector<Staged> refused;
          {
            util::MutexLock lock(life->mutex);
            if (life->alive) {
              completed_.add();
              tenant_completed_.with(tenant).add();
              refused = release_and_pump(r);
            }
          }
          // Touching no Router state from here: an answer may wake a caller
          // that destroys the Router, and the released slots let drain()
          // return.
          for (Staged& waiting : refused) shed_answer(waiting, group);
          result.latency_seconds += staged_seconds;
          if (*done) (*done)(std::move(result));
          group.end_request();
        });
  } catch (...) {
    ok = false;
  }
  if (!ok) {
    --dispatched_[r];
    --inflight_;
    st.done = std::move(*done);
    return false;
  }
  admitted_[r]->add();
  return true;
}

std::vector<Router::Staged> Router::release_and_pump(std::size_t replica) {
  std::vector<Staged> refused;
  {
    util::MutexLock lock(stage_mutex_);
    --dispatched_[replica];
    --inflight_;
    while (inflight_ < window_ && total_staged_ > 0) {
      // Smooth weighted round-robin over the non-empty lanes: every
      // candidate gains its weight, the highest accumulator dispatches and
      // pays back the round's total — served shares converge to the weight
      // ratio without bursts (nginx's smooth-WRR).
      TenantLane* best = nullptr;
      double total = 0;
      for (TenantLane& lane : lanes_) {
        if (lane.staged.empty()) continue;
        lane.wrr_current += lane.slo.weight;
        total += lane.slo.weight;
        if (!best || lane.wrr_current > best->wrr_current) best = &lane;
      }
      best->wrr_current -= total;

      Staged st = std::move(best->staged.front());
      best->staged.pop_front();
      --total_staged_;
      if (dispatch_locked(st)) continue;
      if (inflight_ > 0) {
        // A completion will pump again; park the request back at the front
        // so its lane keeps its weighted-fair position.
        best->staged.push_front(std::move(st));
        ++total_staged_;
        break;
      }
      // Nothing in flight will pump it again and a replica refused it: the
      // tier stopped under it (or its replicas were filled around the
      // Router). It is answered as shed, outside the lock.
      refused.push_back(std::move(st));
    }
  }
  for (const Staged& st : refused) {
    shed_queue_full_.add();
    tenant_shed_.with(st.meta.tenant).add();
  }
  return refused;
}

void Router::shed_answer(Staged& st, ReplicaGroup& group) {
  InferResult shed;
  shed.vertex = st.vertex;
  shed.tenant = st.meta.tenant;
  shed.shed = true;
  if (st.done) st.done(std::move(shed));
  group.end_request();
}

std::vector<std::optional<InferResult>> Router::infer_batch(std::span<const vid_t> vertices,
                                                            const RequestMeta& meta) {
  const std::size_t n = vertices.size();
  if (n == 0) return {};
  for (const vid_t v : vertices)
    if (v < 0 || v >= num_vertices_)
      throw std::out_of_range("Router: vertex id out of range");
  (void)lane_of(meta.tenant);

  // Reserve the whole batch's admission slots atomically: a group publish
  // now has to wait until every request below completes, so all admitted
  // answers come from one snapshot version.
  const bool slots = group_.begin_requests(n);
  return collect_batch(n, [&](std::size_t i, Done done) {
    return admit_one(slots, vertices[i], meta, std::move(done));
  });
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
  d.tenants = tenants;
  for (const TenantCounters& b : base.tenants) {
    TenantCounters& lane = tenant_lane(d.tenants, b.tenant);
    lane.submitted -= b.submitted;
    lane.completed -= b.completed;
    lane.shed -= b.shed;
  }
  return d;
}

RouterStats Router::stats() const {
  RouterStats s;
  s.submitted = submitted_.value();
  s.completed = completed_.value();
  s.shed_deadline = shed_deadline_.value();
  s.shed_priority = shed_priority_.value();
  s.shed_queue_full = shed_queue_full_.value();
  s.shed_budget = shed_budget_.value();
  for (const obs::Counter* admitted : admitted_) {
    s.admitted_per_replica.push_back(admitted->value());
    s.admitted += s.admitted_per_replica.back();
  }
  read_tenant_lanes(tenant_submitted_, tenant_completed_, tenant_shed_, s.tenants);
  return s;
}

void Router::scrape(obs::MetricsSnapshot& out) const {
  metrics_.scrape(out);
  group_.scrape(out);
}

void Router::collect_traces(std::vector<obs::Trace>& out) const { group_.collect_traces(out); }

}  // namespace distgnn::serve
