// The unified serving contract every tier implements.
//
// ServingBackend is the one polymorphic contract behind every tier — submit
// with deadline/priority metadata, batch inference, snapshot publication,
// queue-depth introspection, drain — so read scaling (replication) and
// memory scaling (sharding) compose: a
// Router can front any mix of backends, a ReplicaGroup can replicate
// ShardedServers, and admission control / traffic generation / the embedding
// cache apply uniformly to every tier.
//
// The concrete implementations form a tower:
//
//   InferenceServer            one process, worker pool, micro-batching
//   ShardedServer              P ranks over a vertex-cut feature shard
//   ReplicaGroup               N identical backends + version-barriered publish
//   ComposedTier               R ShardedServer replicas x P shards + Router
//
// Every implementation keeps the bitwise-equality contract: with the same
// (snapshot, sample_seed, fanouts), an admitted request's logits are
// bit-for-bit those of a single InferenceServer.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/scrape.hpp"
#include "serve/feature_cache.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/request_queue.hpp"

namespace distgnn::serve {

/// Per-tenant slice of a stats snapshot, read out of the tier's per-tenant
/// registry counters; absorb() merges children's lanes by tenant id.
struct TenantCounters {
  tenant_t tenant = kDefaultTenant;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;  // budget sheds + queue bounces, tenant-attributed

  double shed_rate() const {
    return submitted == 0 ? 0.0 : static_cast<double>(shed) / static_cast<double>(submitted);
  }
};

/// Find-or-insert the lane for `tenant` (lanes keep insertion order — tiers
/// register tenants in first-seen order, which is id order in practice).
TenantCounters& tenant_lane(std::vector<TenantCounters>& lanes, tenant_t tenant);

/// One stats snapshot shape for every tier: a typed view that stats() builds
/// by reading the tier's MetricsRegistry handles (nothing is counted here).
/// Composite backends aggregate their members' views into the parent
/// counters and keep the per-member detail in `children` (per replica for a
/// group, per rank for a sharded server).
struct BackendStats {
  /// Human-readable identity of the backend this snapshot describes (a
  /// registry entry's tenant name, empty for anonymous members).
  std::string label;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;          // bounced off a bounded queue / shed
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  // Σ batch sizes (== completed at drain)
  double service_seconds = 0;   // Σ worker time spent inside batch processing
  std::size_t queue_depth = 0;  // requests waiting at the time of the call

  // Sharded-tier counters (zero for single-process backends).
  std::uint64_t halo_rows_fetched = 0;  // rows that crossed a rank boundary
  std::uint64_t halo_bytes = 0;
  /// Time blocked waiting for halo responses — the quantity the prefetch
  /// ring overlaps away; compare per batch across prefetch_depth settings.
  double halo_wait_seconds = 0;

  // Cache views of distgnn_<layer>_cache_{accesses,misses,fill_bytes}_total
  // (fill bytes as bytes_read), by cache label.
  CacheStats feature_cache;  // space 0: local/owned feature rows
  CacheStats halo_cache;     // space 1: remote rows (sharded tier only)
  CacheStats embed_cache;    // layer-output cache (embed-forward mode only)

  /// End-to-end request latency histogram (submit -> reply callback), filled
  /// by leaf backends from their metrics registry and folded bucket-wise in
  /// absorb() — so a ReplicaGroup/ComposedTier snapshot carries a real
  /// latency distribution instead of re-measuring at every layer.
  obs::HistogramData latency;

  /// Per-tenant lanes (merged by tenant id in absorb()).
  std::vector<TenantCounters> tenants;

  /// Per-member detail: replicas of a group, ranks of a sharded server.
  std::vector<BackendStats> children;

  double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batched_requests) / static_cast<double>(batches);
  }
  /// Amortized per-request service time — the rate the admission controller
  /// multiplies queue depth by to decide whether a deadline is meetable.
  double mean_service_seconds() const {
    return completed == 0 ? 0.0 : service_seconds / static_cast<double>(completed);
  }
  double mean_halo_wait_per_batch() const {
    return batches == 0 ? 0.0 : halo_wait_seconds / static_cast<double>(batches);
  }

  /// Folds a member's counters into this snapshot and records it as a child.
  void absorb(BackendStats child) {
    completed += child.completed;
    rejected += child.rejected;
    batches += child.batches;
    batched_requests += child.batched_requests;
    service_seconds += child.service_seconds;
    queue_depth += child.queue_depth;
    halo_rows_fetched += child.halo_rows_fetched;
    halo_bytes += child.halo_bytes;
    halo_wait_seconds += child.halo_wait_seconds;
    feature_cache += child.feature_cache;
    halo_cache += child.halo_cache;
    embed_cache += child.embed_cache;
    latency += child.latency;
    for (const TenantCounters& lane : child.tenants) {
      TenantCounters& mine = tenant_lane(tenants, lane.tenant);
      mine.submitted += lane.submitted;
      mine.completed += lane.completed;
      mine.shed += lane.shed;
    }
    children.push_back(std::move(child));
  }
};

/// A serving loop's batch tallies, as handles into its tier's registry:
/// distgnn_<layer>_batches_total, _batched_requests_total (Σ batch sizes,
/// which is the loop's completed count once a batch's callbacks ran) and
/// _service_ns_total (worker time inside batch processing), all under
/// `labels` (a ShardedServer labels each rank's loop with its rank).
struct BatchCounters {
  BatchCounters(obs::MetricsRegistry& registry, const std::string& layer,
                const obs::Labels& labels = {});

  void add_batch(std::size_t size, ServeClock::duration service);
  /// Fills completed, batches, batched_requests and service_seconds.
  void read(BackendStats& s) const;

  obs::Counter& batches;
  obs::Counter& batched_requests;
  obs::Counter& service_ns;
};

/// Per-tenant lanes out of three tenant-keyed counter families (a leaf's
/// StageMetrics, the Router's tenant books).
void read_tenant_lanes(const obs::CounterFamily& submitted, const obs::CounterFamily& completed,
                       const obs::CounterFamily& shed, std::vector<TenantCounters>& lanes);

/// A leaf's per-tenant view of its StageMetrics: tenant lanes, `rejected`
/// (a leaf sheds only by bouncing off its bounded queue, so that is the sum
/// of its shed counters) and the end-to-end latency fold.
void read_stage_metrics(const obs::StageMetrics& metrics, BackendStats& s);

/// Submits entry i of a batch, handing `done` to the tier; false = refused.
using SubmitAt = std::function<bool(std::size_t, std::function<void(InferResult&&)>)>;

/// The one blocking wait behind every infer_batch and infer_sync: calls
/// `submit(i, done)` for each i < n, then waits until every admitted entry's
/// `done` has run. Refused entries, and InferResult::shed answers, stay nullopt.
std::vector<std::optional<InferResult>> collect_batch(std::size_t n, const SubmitAt& submit);

/// The closed-loop retry behind every infer_sync: resubmits while the tier
/// refuses and `accepting()` holds (backpressure, not an error), throws
/// std::runtime_error once it stops accepting, and returns the answer, whose
/// latency counts from the first attempt. Each refused attempt is booked by
/// the tier as a submit and a shed.
InferResult infer_until_admitted(const std::function<bool(std::function<void(InferResult&&)>)>& submit,
                                 const std::function<bool()>& accepting);

/// Sideband a DeltaPublisher hands to apply_graph_update so each tier can
/// invalidate precisely. `epoch` is the graph epoch after the apply (folded
/// into EmbedCache keys); `features` lists the vertices whose feature rows
/// the apply rewrites (their layer-0 cache entries are dropped, and sharded
/// tiers refresh their local feature shards); `dirty_layers[l-1]` is the set
/// of vertices whose h_l changed (the delta's l-hop out-frontier) — the
/// eviction set for embed-cache layer l. `full_flush` forces whole-cache
/// invalidation instead (the baseline the targeted path is measured
/// against).
struct GraphUpdateNotice {
  std::uint64_t epoch = 0;
  std::vector<vid_t> features;
  std::vector<std::vector<vid_t>> dirty_layers;
  bool full_flush = false;
};

class ServingBackend : public obs::ScrapeSource {
 public:
  ~ServingBackend() override = default;

  /// ScrapeSource: fold this backend's metrics (and children's) into `out`.
  /// Default is empty so test fakes and thin adapters stay source-
  /// compatible; real tiers override (leaves scrape their registry,
  /// composites recurse).
  void scrape(obs::MetricsSnapshot& out) const override { (void)out; }

  /// Atomically swaps the served model; callable before start() and at any
  /// point under live traffic. Composite backends make this a version-
  /// barriered group operation (see ReplicaGroup / ComposedTier).
  virtual void publish(std::shared_ptr<const ModelSnapshot> snapshot) = 0;
  virtual std::shared_ptr<const ModelSnapshot> snapshot() const = 0;

  /// Spawns the serving loop(s). Requires a published snapshot.
  virtual void start() = 0;
  /// Closes admission, drains pending requests, joins workers. Idempotent.
  virtual void stop() = 0;

  /// Asynchronous submission; `done` runs on a worker thread. `meta`
  /// carries the request's admission metadata (deadline, priority, tenant)
  /// end-to-end — the tenant id survives into the InferResult and the
  /// per-tenant stats lanes. Returns false (and counts a rejection) when
  /// the request could not be admitted — bounded queue full, or shed by an
  /// admission policy layered into the backend. Backends themselves never
  /// drop an admitted request on deadline; late answers keep the bitwise
  /// contract.
  virtual bool submit(vid_t vertex, const RequestMeta& meta,
                      std::function<void(InferResult&&)> done) = 0;
  bool submit(vid_t vertex, std::function<void(InferResult&&)> done) {
    return submit(vertex, RequestMeta{}, std::move(done));
  }

  /// Blocking batch: one entry per vertex, nullopt where the request was not
  /// admitted. The default implementation submits through the virtual
  /// submit() and waits; composite backends override to pin the whole batch
  /// to one admission epoch (no answer mixes snapshot versions).
  virtual std::vector<std::optional<InferResult>> infer_batch(std::span<const vid_t> vertices,
                                                              const RequestMeta& meta);
  std::vector<std::optional<InferResult>> infer_batch(std::span<const vid_t> vertices) {
    return infer_batch(vertices, RequestMeta{});
  }

  /// Blocking convenience wrapper for closed-loop clients and tests, over
  /// the virtual submit(): retries while the backend is accepting()
  /// (closed-loop callers want backpressure, not an error) and throws
  /// std::runtime_error once it stops — a rejection from a stopped backend
  /// would otherwise retry forever.
  InferResult infer_sync(vid_t vertex);

  /// Whether submissions can currently be admitted (start()ed, not
  /// stop()ped, and with queue room to admit anything at all). The default
  /// is true; backends with a real stopped state override so blocking
  /// callers fail instead of spinning.
  virtual bool accepting() const { return true; }

  /// Requests currently waiting (excludes in-service batches) — the signal
  /// power-of-two-choices routing compares across backends.
  virtual std::size_t queue_depth() const = 0;

  /// Blocks until every admitted request has completed (a quiesce point for
  /// publication barriers and orderly shutdown). Requests submitted while
  /// draining extend the wait.
  virtual void drain() = 0;

  /// Amortized per-request service time observed so far (0 until the first
  /// batch completes). Must be cheap — it sits on the admission path.
  virtual double mean_service_seconds() const = 0;

  /// Parallel service width (worker threads / ranks) the admission
  /// controller divides queue depth by when estimating completion time.
  virtual int concurrency() const = 0;

  virtual const Dataset& dataset() const = 0;
  virtual BackendStats stats() const = 0;

  /// Version-barriered graph mutation (the delta analogue of publish()).
  /// `apply` mutates the shared Dataset — graph swap + feature-row writes —
  /// and runs exactly once, while no reader is mid-batch; `notice` tells the
  /// backend what changed so it can invalidate its caches precisely (and, on
  /// sharded tiers, refresh its local feature shards). Composite backends
  /// barrier the whole tree and pass `apply` to exactly one member (the
  /// Dataset is shared). The default drains and applies — correct for any
  /// stopped backend and for test fakes without caches.
  virtual void apply_graph_update(const std::function<void()>& apply,
                                  const GraphUpdateNotice& notice);

  /// Graph epoch currently served (0 = frozen graph / no deltas yet).
  /// Folded into embed-cache keys so racing in-flight batches can never
  /// read a mixed-epoch embedding.
  virtual std::uint64_t graph_epoch() const { return 0; }
};

}  // namespace distgnn::serve
