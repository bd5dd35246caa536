// Multi-tenant model registry: N named models served from one process.
//
// A production serving fleet rarely hosts one model. The registry owns N
// (name, SLO, ServingBackend) entries — each entry is a *tenant* — and is
// the front door for tenant-aware traffic: submit(tenant, vertex, done)
// stamps the entry's SLO into the RequestMeta (deadline, priority, tenant
// id), enforces the entry's token-bucket admission budget at the edge, and
// forwards to the entry's backend. Any ServingBackend can sit behind an
// entry: a plain InferenceServer, a ReplicaGroup with a weighted-fair
// Router, a ShardedServer, or a whole ComposedTier — so one tenant can be
// replicated x sharded while its neighbour is a single cheap server.
//
// Isolation properties the registry provides (and the multitenant bench
// measures):
//   - *Budget isolation*: each entry's TokenBucket sheds that tenant's
//     excess before it touches any queue, so tenant B's MMPP burst cannot
//     grow tenant A's backlog through the registry path.
//   - *Model isolation*: entries own disjoint backends (separate queues,
//     workers, caches), so service-time interference is bounded to the
//     machine's shared cores.
//   - *Independent hot-swap*: publish(tenant, snapshot) swaps exactly one
//     entry through its backend's own publish (version-barriered for
//     composite backends); other tenants' in-flight answers are untouched —
//     the registry test pins bitwise stability of B's answers across a swap
//     of A.
//
// The tenant id is the entry index (dense, stable for the registry's
// lifetime), which is also how per-tenant stats lanes and the Router's
// AdmissionConfig::tenants index their tenants.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "serve/backend.hpp"
#include "serve/inference_server.hpp"
#include "serve/tenant.hpp"
#include "serve/traffic_gen.hpp"
#include "util/sync.hpp"

namespace distgnn::obs {
class HealthMonitor;
}  // namespace distgnn::obs

namespace distgnn::serve {

class ModelRegistry : public obs::ScrapeSource {
 public:
  ModelRegistry() = default;
  ~ModelRegistry() override { stop(); }

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers a tenant: `slo.name` is the model's registry name, the rest
  /// of the SLO governs admission. Returns the tenant id (= entry index).
  /// If the registry is already started, the backend is started immediately
  /// (it must have a published snapshot by then).
  tenant_t add(TenantSlo slo, std::unique_ptr<ServingBackend> backend);
  /// Convenience: a fresh single-process InferenceServer over `dataset`.
  tenant_t add_server(TenantSlo slo, const Dataset& dataset, const ServeConfig& config);

  int num_models() const { return static_cast<int>(entries_.size()); }
  const TenantSlo& slo(tenant_t tenant) const { return entry(tenant).slo; }
  ServingBackend& backend(tenant_t tenant) { return *entry(tenant).backend; }
  const ServingBackend& backend(tenant_t tenant) const { return *entry(tenant).backend; }
  /// Registry name -> tenant id (nullopt when absent).
  std::optional<tenant_t> find(const std::string& name) const;

  /// Hot-swaps one tenant's model only. Composite backends run their own
  /// version barrier; every other tenant keeps serving throughout.
  void publish(tenant_t tenant, std::shared_ptr<const ModelSnapshot> snapshot);

  void start();
  void stop();

  /// Tenant-aware submission: stamps the entry's SLO into the RequestMeta
  /// (deadline from slo.deadline_seconds, priority, tenant id), charges the
  /// entry's token bucket, and forwards. Returns false when shed at the
  /// budget or rejected by the backend; `done` is then never invoked.
  bool submit(tenant_t tenant, vid_t vertex, std::function<void(InferResult&&)> done);

  /// Blocking single request with closed-loop backpressure: retries while
  /// the backend accepts (budget sheds wait for the bucket to refill) and
  /// throws once it stops.
  InferResult infer_sync(tenant_t tenant, vid_t vertex);

  /// Blocking batch under the tenant's SLO; nullopt where shed. The whole
  /// batch is charged to the budget up front (partial admission keeps the
  /// admitted prefix).
  std::vector<std::optional<InferResult>> infer_batch(tenant_t tenant,
                                                      std::span<const vid_t> vertices);

  /// children[t] is tenant t's backend snapshot labelled with its registry
  /// name; tenants[t] is the registry-edge lane (submitted / completed /
  /// shed, where shed counts budget sheds and backend rejections — the
  /// backends themselves only ever see admitted traffic).
  BackendStats stats() const;

  /// ScrapeSource over the whole registry: per-tenant registry-edge
  /// counters (distgnn_registry_*_total{tenant}) plus every entry backend's
  /// scrape — one scrape of the registry walks every tenant's tower down to
  /// its leaves.
  void scrape(obs::MetricsSnapshot& out) const override;
  void collect_traces(std::vector<obs::Trace>& out) const override;

  /// Wires the registry into a HealthMonitor: the registry as a scrape
  /// source plus one burn-rate SLO per entry with a deadline (the entry's
  /// TenantSlo carries deadline_seconds and slo_target). Call after the
  /// tenants are added; the registry must outlive the monitor's last tick.
  void configure_health(obs::HealthMonitor& monitor,
                        const std::string& name = "registry") const;

 private:
  struct Entry {
    Entry(obs::MetricsRegistry& metrics, const obs::Labels& tenant);

    TenantSlo slo;
    std::unique_ptr<ServingBackend> backend;
    util::Mutex admission_mutex;  // serializes the (unsynchronized) bucket
    TokenBucket bucket GUARDED_BY(admission_mutex);
    // The tenant's registry-edge lane in metrics_; shed counts budget sheds
    // and backend rejections where they happen.
    obs::Counter& submitted;
    obs::Counter& admitted;
    obs::Counter& completed;
    obs::Counter& shed;
  };

  Entry& entry(tenant_t tenant);
  const Entry& entry(tenant_t tenant) const;
  RequestMeta make_meta(const Entry& e, tenant_t tenant) const;

  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<Entry>> entries_;
  bool started_ = false;
};

/// Submits through the registry's front door: the request's tenant picks the
/// entry, whose SLO then supplies deadline and priority.
inline SubmitFn submit_to(ModelRegistry& registry) {
  return [&registry](vid_t v, const RequestMeta& meta, std::function<void(InferResult&&)> done) {
    return registry.submit(meta.tenant, v, std::move(done));
  };
}

}  // namespace distgnn::serve
