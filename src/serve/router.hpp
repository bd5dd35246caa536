// Request routing and admission control in front of a ReplicaGroup.
//
// The Router decides *whether* a request runs and *where*: round-robin,
// least-outstanding, or power-of-two-choices over queue depth. It consults
// only the ServingBackend contract, so every policy works over any mix of
// replicas (InferenceServers, ShardedServers).
//
// Every request takes one path: admit -> stage -> weighted-fair dispatch.
// Admission sheds, in order: a request over its tenant's token budget; one
// whose deadline cannot be met, estimating the wait as the staged plus
// in-flight requests over the group's concurrency, times the mean service
// time; a low-priority one once that backlog passes the watermark; one its
// lane has no stage room for. An admitted request dispatches at once while
// the dispatch window has room and nothing waits; otherwise it stages, and
// completions drain the lanes by smooth weighted round-robin, so under
// saturation each tenant's share converges to its SLO weight. Without a
// configured window the replicas' bounded queues are the only limit and
// nothing stages. A shed request costs nothing downstream; an admitted one
// is answered exactly once — with logits, or marked InferResult::shed when
// no replica will take it any more.
//
// Without configured tenants there is one lane, from a default TenantSlo,
// and it serves any tenant id (a ModelRegistry stamps its entry index).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
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
  /// Staged plus in-flight requests across the tier beyond which
  /// low-priority requests shed. 0 disables the priority lane.
  std::size_t low_priority_depth = 64;

  /// Tenant lanes: tenant id i gets tenants[i]'s SLO (weight, budget,
  /// deadline, stage capacity) and other ids are rejected. Empty = one lane
  /// with a default TenantSlo that serves every tenant id.
  std::vector<TenantSlo> tenants;
  /// Max requests dispatched to replicas but not yet completed; admitted
  /// requests beyond it stage and wait their weighted-fair turn. 0 = no
  /// Router window: requests dispatch while the replicas accept them, so
  /// each replica batches from its own queue and a stalled one fills only
  /// its own queue.
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
  /// Per-tenant submitted/completed/shed, keyed by the requests' tenant ids.
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

  /// Answers every staged request as shed. Requests already at a replica
  /// are answered by it; their completions no longer touch this Router.
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Admits one request. Returns false when it was shed (budget empty,
  /// deadline unmeetable, priority lane over watermark, stage full, a
  /// replica bounced its inline dispatch, or the group is stopped) — `done`
  /// is then never invoked. A true return means `done` runs exactly once:
  /// with the answer, or with InferResult::shed set if the request was
  /// staged and no replica will take it any more (the tier stopped under
  /// it, or this Router was destroyed).
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
  /// admitted per replica, completed, sheds by reason, per tenant), then
  /// the fronted group — one scrape of the Router walks the whole tier.
  void scrape(obs::MetricsSnapshot& out) const override;
  void collect_traces(std::vector<obs::Trace>& out) const override;
  ReplicaGroup& group() { return group_; }

 private:
  using Done = std::function<void(InferResult&&)>;
  /// A request waiting for its weighted-fair dispatch turn.
  struct Staged {
    vid_t vertex = kInvalidVertex;
    RequestMeta meta;
    Done done;
    ServeClock::time_point admitted{};  // the stage wait joins the answer's latency
  };
  /// Shared with every dispatched request's completion, so a completion
  /// that outlives the Router sees `alive == false` and leaves it alone.
  struct Lifeline {
    util::Mutex mutex;
    bool alive GUARDED_BY(mutex) = true;
  };
  /// One tenant's lane: SLO, rate budget, staged queue, and the smooth-WRR
  /// accumulator. All fields are guarded by stage_mutex_.
  struct TenantLane {
    TenantSlo slo;
    TokenBucket bucket{0, 0};
    std::deque<Staged> staged;
    double wrr_current = 0;
  };

  /// The lane serving `tenant`; throws on an unknown id when tenants are
  /// configured.
  std::size_t lane_of(tenant_t tenant) const;
  /// The one admission function. `slot` says whether the caller got an
  /// admission slot from the group (false once it stopped); a held slot is
  /// released on shed, or handed to the completion callback on admit.
  bool admit_one(bool slot, vid_t vertex, RequestMeta meta, Done done);
  /// Sends `st` to a replica, counting it in flight. On a bounce the counts
  /// are undone, `st.done` is restored and false comes back.
  bool dispatch_locked(Staged& st) REQUIRES(stage_mutex_);
  /// Frees `replica`'s window slot on a completion, then dispatches staged
  /// requests while the window has room, picking each lane by smooth
  /// weighted round-robin. A bounced request re-parks at its lane's front
  /// while another completion is due; with nothing in flight it is counted
  /// as shed and returned, for the caller to answer with shed_answer().
  std::vector<Staged> release_and_pump(std::size_t replica);
  /// Answers an admitted request that will not be served: `done` gets an
  /// InferResult with `shed` set, then the admission slot is released.
  /// Touches no Router state (a completion may run it after ~Router).
  static void shed_answer(Staged& st, ReplicaGroup& group);
  int pick_replica() REQUIRES(stage_mutex_);

  ReplicaGroup& group_;
  /// Immutable mirror of dataset().num_vertices(): the streamed-update
  /// contract fixes the vertex set at construction, and submit() must not
  /// read through the graph while a delta publish is move-assigning it.
  const vid_t num_vertices_;
  RoutePolicy policy_;
  AdmissionConfig admission_;  // immutable after construction

  // The Router's one set of books; stats() and scrape() only read them.
  obs::MetricsRegistry metrics_;
  obs::Counter& submitted_;
  obs::Counter& completed_;
  obs::Counter& shed_deadline_;
  obs::Counter& shed_priority_;
  obs::Counter& shed_queue_full_;
  obs::Counter& shed_budget_;
  std::vector<obs::Counter*> admitted_;  // per replica, fixed at construction
  obs::CounterFamily tenant_submitted_{metrics_, "distgnn_router_tenant_submitted_total"};
  obs::CounterFamily tenant_completed_{metrics_, "distgnn_router_tenant_completed_total"};
  obs::CounterFamily tenant_shed_{metrics_, "distgnn_router_tenant_shed_total"};

  // Lock order: lifeline_->mutex, then stage_mutex_.
  const std::shared_ptr<Lifeline> lifeline_ = std::make_shared<Lifeline>();
  mutable util::Mutex stage_mutex_;
  std::vector<TenantLane> lanes_ GUARDED_BY(stage_mutex_);
  // Per replica: dispatched, not yet completed (queued + in service) — the
  // least-outstanding signal.
  std::vector<std::size_t> dispatched_ GUARDED_BY(stage_mutex_);
  std::size_t inflight_ GUARDED_BY(stage_mutex_) = 0;      // Σ dispatched_
  std::uint64_t rr_next_ GUARDED_BY(stage_mutex_) = 0;     // round-robin cursor
  std::uint64_t p2c_draws_ GUARDED_BY(stage_mutex_) = 0;   // p2c draw stream
  std::size_t total_staged_ GUARDED_BY(stage_mutex_) = 0;  // waiting in some lane
  std::size_t window_ = 0;  // immutable after construction
};

}  // namespace distgnn::serve
