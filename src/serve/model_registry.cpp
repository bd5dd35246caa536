#include "serve/model_registry.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/health.hpp"

namespace distgnn::serve {

ModelRegistry::Entry::Entry(obs::MetricsRegistry& metrics, const obs::Labels& tenant)
    : submitted(metrics.counter("distgnn_registry_submitted_total", tenant)),
      admitted(metrics.counter("distgnn_registry_admitted_total", tenant)),
      completed(metrics.counter("distgnn_registry_completed_total", tenant)),
      shed(metrics.counter("distgnn_registry_shed_total", tenant)) {}

ModelRegistry::Entry& ModelRegistry::entry(tenant_t tenant) {
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= entries_.size())
    throw std::out_of_range("ModelRegistry: unknown tenant id");
  return *entries_[static_cast<std::size_t>(tenant)];
}

const ModelRegistry::Entry& ModelRegistry::entry(tenant_t tenant) const {
  if (tenant < 0 || static_cast<std::size_t>(tenant) >= entries_.size())
    throw std::out_of_range("ModelRegistry: unknown tenant id");
  return *entries_[static_cast<std::size_t>(tenant)];
}

tenant_t ModelRegistry::add(TenantSlo slo, std::unique_ptr<ServingBackend> backend) {
  if (!backend) throw std::invalid_argument("ModelRegistry: null backend");
  if (slo.name.empty()) throw std::invalid_argument("ModelRegistry: tenant needs a name");
  if (find(slo.name)) throw std::invalid_argument("ModelRegistry: duplicate name " + slo.name);
  auto e =
      std::make_unique<Entry>(metrics_, obs::Labels{{"tenant", std::to_string(entries_.size())}});
  e->bucket = TokenBucket(slo.rate_limit, slo.burst);
  e->slo = std::move(slo);
  e->backend = std::move(backend);
  if (started_) e->backend->start();
  entries_.push_back(std::move(e));
  return static_cast<tenant_t>(entries_.size() - 1);
}

tenant_t ModelRegistry::add_server(TenantSlo slo, const Dataset& dataset,
                                   const ServeConfig& config) {
  return add(std::move(slo), std::make_unique<InferenceServer>(dataset, config));
}

std::optional<tenant_t> ModelRegistry::find(const std::string& name) const {
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i]->slo.name == name) return static_cast<tenant_t>(i);
  return std::nullopt;
}

void ModelRegistry::publish(tenant_t tenant, std::shared_ptr<const ModelSnapshot> snapshot) {
  entry(tenant).backend->publish(std::move(snapshot));
}

void ModelRegistry::start() {
  if (started_) return;
  for (auto& e : entries_) e->backend->start();
  started_ = true;
}

void ModelRegistry::stop() {
  if (!started_) return;
  for (auto& e : entries_) e->backend->stop();
  started_ = false;
}

RequestMeta ModelRegistry::make_meta(const Entry& e, tenant_t tenant) const {
  RequestMeta meta;
  if (e.slo.deadline_seconds > 0)
    meta.deadline = ServeClock::now() + std::chrono::duration_cast<ServeClock::duration>(
                                            std::chrono::duration<double>(e.slo.deadline_seconds));
  meta.priority = e.slo.priority;
  meta.tenant = tenant;
  return meta;
}

bool ModelRegistry::submit(tenant_t tenant, vid_t vertex,
                           std::function<void(InferResult&&)> done) {
  Entry& e = entry(tenant);
  e.submitted.add();
  bool budgeted = false;
  {
    util::MutexLock lock(e.admission_mutex);
    budgeted = e.bucket.try_take(ServeClock::now());
  }
  if (!budgeted) {
    e.shed.add();
    return false;
  }
  const bool ok = e.backend->submit(
      vertex, make_meta(e, tenant),
      [&e, user_done = std::move(done)](InferResult&& result) mutable {
        // Count before the user callback so a blocking caller that wakes
        // inside it observes its own completion in stats().
        (result.shed ? e.shed : e.completed).add();
        if (user_done) user_done(std::move(result));
      });
  (ok ? e.admitted : e.shed).add();
  return ok;
}

InferResult ModelRegistry::infer_sync(tenant_t tenant, vid_t vertex) {
  // A budget shed or a full queue means wait (the bucket refills
  // continuously); a stopped backend throws.
  return infer_until_admitted(
      [&](std::function<void(InferResult&&)> done) {
        return submit(tenant, vertex, std::move(done));
      },
      [&] { return entry(tenant).backend->accepting(); });
}

std::vector<std::optional<InferResult>> ModelRegistry::infer_batch(
    tenant_t tenant, std::span<const vid_t> vertices) {
  Entry& e = entry(tenant);
  const std::size_t n = vertices.size();
  e.submitted.add(n);
  // Charge the budget up front; the admitted prefix proceeds as one batch
  // under the backend's admission epoch.
  std::size_t affordable = 0;
  {
    util::MutexLock lock(e.admission_mutex);
    const auto now = ServeClock::now();
    while (affordable < n && e.bucket.try_take(now)) ++affordable;
  }
  std::vector<std::optional<InferResult>> results(n);
  std::uint64_t got = 0;
  if (affordable != 0) {
    auto answered = e.backend->infer_batch(vertices.first(affordable), make_meta(e, tenant));
    for (std::size_t i = 0; i < answered.size(); ++i) {
      if (!answered[i]) continue;
      results[i] = std::move(answered[i]);
      ++got;
    }
  }
  e.admitted.add(got);
  e.completed.add(got);
  e.shed.add(n - got);  // budget sheds plus backend rejections
  return results;
}

BackendStats ModelRegistry::stats() const {
  BackendStats s;
  s.label = "registry";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    BackendStats child = entries_[i]->backend->stats();
    child.label = entries_[i]->slo.name;
    s.absorb(std::move(child));
  }
  // The registry edge is the authoritative per-tenant accounting: backends
  // only ever see admitted traffic, so their lanes undercount sheds.
  s.tenants.clear();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = *entries_[i];
    s.tenants.push_back(TenantCounters{static_cast<tenant_t>(i), e.submitted.value(),
                                       e.completed.value(), e.shed.value()});
  }
  return s;
}

void ModelRegistry::scrape(obs::MetricsSnapshot& out) const {
  metrics_.scrape(out);
  for (const auto& e : entries_) e->backend->scrape(out);
}

void ModelRegistry::collect_traces(std::vector<obs::Trace>& out) const {
  for (const auto& e : entries_) e->backend->collect_traces(out);
}

void ModelRegistry::configure_health(obs::HealthMonitor& monitor,
                                     const std::string& name) const {
  monitor.add_source(name, *this);
  for (std::size_t t = 0; t < entries_.size(); ++t) {
    const TenantSlo& slo = entries_[t]->slo;
    if (slo.deadline_seconds > 0)
      monitor.set_slo(static_cast<int>(t), slo.deadline_seconds, slo.slo_target);
  }
}

obs::HealthConfig make_health_config(const TierConfig& config) {
  obs::HealthConfig health;
  health.scrape_period_seconds = config.health_scrape_period_seconds;
  health.burn_fast_window_seconds = config.health_fast_window_seconds;
  health.burn_slow_window_seconds = config.health_slow_window_seconds;
  return health;
}

}  // namespace distgnn::serve
