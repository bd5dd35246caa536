// Request routing and admission control in front of a ReplicaGroup.
//
// The Router decides two things per request: *where* it runs (round-robin,
// least-outstanding, or power-of-two-choices over per-replica queue depth)
// and *whether* it runs at all. Replicas are ServingBackends — single
// InferenceServers, ShardedServers (the composed tier), or any mix — and
// the Router only consults the uniform contract (queue_depth,
// mean_service_seconds, concurrency), so every policy works unchanged over
// heterogeneous members. Admission control sheds a request when its
// deadline cannot be met — estimated as the target replica's outstanding
// count divided by its concurrency, times the observed per-request service
// rate — and drops low-priority work first once a replica's queue depth
// crosses the low-priority watermark. Shedding happens before the queue, so
// an admitted request is always answered (bitwise-identically to a single
// server), while a shed one costs nothing downstream; under bursty MMPP
// arrivals that is what keeps the admitted-traffic p99 flat.
// Multi-tenant mode: when AdmissionConfig::tenants is non-empty the Router
// runs one staged queue per tenant and dispatches to replicas through a
// smooth weighted-round-robin scheduler — under saturation each tenant's
// served throughput converges to its SLO weight share, so one tenant's MMPP
// burst cannot starve another's lane. Per-tenant token buckets bound each
// tenant's admitted rate (budget shedding), and per-tenant deadlines default
// from the tenant's SLO.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/scrape.hpp"
#include "serve/replica_group.hpp"
#include "serve/tenant.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

enum class RoutePolicy { kRoundRobin, kLeastOutstanding, kPowerOfTwo };

/// "round-robin" | "least-outstanding" | "p2c" (anything else throws — the
/// bench/demo flag parsers rely on loud failure).
RoutePolicy parse_route_policy(const std::string& name);
std::string route_policy_name(RoutePolicy policy);

struct AdmissionConfig {
  /// Master switch for deadline shedding (the bench's on/off comparison).
  bool shed_deadlines = true;
  /// Per-replica queue depth beyond which low-priority requests shed.
  /// 0 disables the priority lane.
  std::size_t low_priority_depth = 64;
  /// Pessimism multiplier on the estimated wait (> 1 sheds earlier).
  double estimate_margin = 1.0;
  /// Seed of the power-of-two-choices sampling stream.
  std::uint64_t seed = 99;

  /// Multi-tenant lanes: tenant id i gets tenants[i]'s SLO (weight, budget,
  /// deadline, stage capacity). Empty = single-tenant legacy path (requests
  /// go straight to the picked replica, no staging).
  std::vector<TenantSlo> tenants;
  /// Max requests dispatched to replicas but not yet completed in tenant
  /// mode; staged requests beyond it wait their weighted-fair turn.
  /// 0 = 2 x the group's total concurrency.
  std::size_t dispatch_window = 0;
};

/// Typed view of the Router's registry counters (Router::stats() reads them;
/// nothing is counted here).
struct RouterStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed_deadline = 0;    // deadline unmeetable at admission time
  std::uint64_t shed_priority = 0;    // low-priority lane over the watermark
  std::uint64_t shed_queue_full = 0;  // bounced off a bounded queue / stage cap
  std::uint64_t shed_budget = 0;      // tenant token bucket empty
  std::vector<std::uint64_t> admitted_per_replica;
  /// Per-tenant submitted/completed/shed (tenant mode only).
  std::vector<TenantCounters> tenants;

  std::uint64_t shed() const {
    return shed_deadline + shed_priority + shed_queue_full + shed_budget;
  }
  double shed_rate() const {
    return submitted == 0 ? 0.0 : static_cast<double>(shed()) / static_cast<double>(submitted);
  }
  /// Counters accrued since `base` (an earlier stats() snapshot) — keeps
  /// warmup traffic out of measured-run shed rates.
  RouterStats since(const RouterStats& base) const;
};

class Router : public obs::ScrapeSource {
 public:
  Router(ReplicaGroup& group, RoutePolicy policy, AdmissionConfig admission = {});

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Routes one request. Returns false when the request was shed (budget
  /// empty, deadline unmeetable, priority lane over watermark, or queue
  /// full) — `done` is then never invoked. In tenant mode a true return
  /// means the request entered its tenant's staged lane; it dispatches in
  /// weighted-fair order and `done` runs on completion.
  bool submit(vid_t vertex, const RequestMeta& meta, std::function<void(InferResult&&)> done);
  bool submit(vid_t vertex, std::function<void(InferResult&&)> done);

  /// Blocking batch under ONE admission epoch: all slots are reserved before
  /// the first submit, so the group's publish barrier cannot land inside the
  /// batch — every admitted answer carries the same snapshot_version.
  /// Entries of shed requests come back as nullopt.
  std::vector<std::optional<InferResult>> infer_batch(std::span<const vid_t> vertices,
                                                      const RequestMeta& meta = {});

  RouterStats stats() const;
  /// ScrapeSource: the Router's distgnn_router_* counters (submitted,
  /// admitted per replica, completed, sheds by reason, tenant lanes), then
  /// the fronted group — one scrape of the Router walks the whole tier.
  void scrape(obs::MetricsSnapshot& out) const override;
  void collect_traces(std::vector<obs::Trace>& out) const override;
  RoutePolicy policy() const { return policy_; }
  ReplicaGroup& group() { return group_; }
  bool tenant_mode() const { return num_lanes_ != 0; }

 private:
  /// A staged request waiting for its weighted-fair dispatch turn.
  struct Staged {
    vid_t vertex = kInvalidVertex;
    RequestMeta meta;
    std::function<void(InferResult&&)> done;
  };
  /// One tenant's lane: SLO, rate budget, staged queue, and the smooth-WRR
  /// accumulator. All fields are guarded by stage_mutex_.
  struct TenantLane {
    TenantSlo slo;
    TokenBucket bucket{0, 0};
    std::deque<Staged> staged;
    double wrr_current = 0;
  };
  /// One tenant lane's distgnn_router_tenant_*_total handles.
  struct LaneCounters {
    obs::Counter* submitted;
    obs::Counter* completed;
    obs::Counter* shed;
  };

  /// Assumes one admission slot is already held; releases it on shed, or
  /// hands it to the completion callback on admit.
  bool route_one(vid_t vertex, const RequestMeta& meta, std::function<void(InferResult&&)> done);
  /// Tenant-mode admission: budget, deadline, priority and stage-capacity
  /// checks under stage_mutex_, then stage + pump. Slot handling as above.
  bool admit_one(vid_t vertex, RequestMeta meta, std::function<void(InferResult&&)> done);
  /// Dispatches staged requests while the window has room, picking the next
  /// tenant by smooth weighted round-robin. Caller holds stage_mutex_.
  void pump_locked() REQUIRES(stage_mutex_);
  int pick_replica();

  ReplicaGroup& group_;
  /// Immutable mirror of dataset().num_vertices(): the streamed-update
  /// contract fixes the vertex set at construction, and submit() must not
  /// read through the graph while a delta publish is move-assigning it.
  const vid_t num_vertices_;
  RoutePolicy policy_;
  AdmissionConfig admission_;

  std::atomic<std::uint64_t> rr_next_{0};
  std::atomic<std::uint64_t> p2c_draws_{0};
  // Per-replica requests admitted but not yet completed (queued + in
  // service) — the least-outstanding signal. A raw array because atomics are
  // not movable.
  std::unique_ptr<std::atomic<std::uint64_t>[]> outstanding_;

  // The Router's one set of books; stats() and scrape() only read them.
  obs::MetricsRegistry metrics_;
  obs::Counter& submitted_;
  obs::Counter& completed_;
  obs::Counter& shed_deadline_;
  obs::Counter& shed_priority_;
  obs::Counter& shed_queue_full_;
  obs::Counter& shed_budget_;
  std::vector<obs::Counter*> admitted_;     // per replica, fixed at construction
  std::vector<LaneCounters> lane_counters_;  // per tenant lane, fixed at construction

  // Tenant mode (num_lanes_ == 0 = legacy single-tenant path; num_lanes_ is
  // the immutable mirror of lanes_.size() for lock-free mode checks).
  mutable util::Mutex stage_mutex_;
  std::vector<TenantLane> lanes_ GUARDED_BY(stage_mutex_);
  std::size_t num_lanes_ = 0;  // immutable after construction
  std::size_t inflight_ GUARDED_BY(stage_mutex_) = 0;   // dispatched, not yet completed
  std::size_t total_staged_ GUARDED_BY(stage_mutex_) = 0;  // waiting in some lane
  std::size_t window_ = 0;  // immutable after construction
};

}  // namespace distgnn::serve
