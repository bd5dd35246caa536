#include "serve/backend.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace distgnn::serve {

BatchCounters::BatchCounters(obs::MetricsRegistry& registry, const std::string& layer,
                             const obs::Labels& labels)
    : batches(registry.counter("distgnn_" + layer + "_batches_total", labels)),
      batched_requests(registry.counter("distgnn_" + layer + "_batched_requests_total", labels)),
      service_ns(registry.counter("distgnn_" + layer + "_service_ns_total", labels)) {}

void BatchCounters::add_batch(std::size_t size, ServeClock::duration service) {
  batches.add();
  batched_requests.add(size);
  service_ns.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(service).count()));
}

void BatchCounters::read(BackendStats& s) const {
  s.batches = batches.value();
  s.batched_requests = batched_requests.value();
  s.completed = s.batched_requests;
  s.service_seconds = static_cast<double>(service_ns.value()) * 1e-9;
}

TenantCounters& tenant_lane(std::vector<TenantCounters>& lanes, tenant_t tenant) {
  for (TenantCounters& lane : lanes)
    if (lane.tenant == tenant) return lane;
  lanes.push_back(TenantCounters{tenant, 0, 0, 0});
  return lanes.back();
}

void read_tenant_lanes(const obs::CounterFamily& submitted, const obs::CounterFamily& completed,
                       const obs::CounterFamily& shed, std::vector<TenantCounters>& lanes) {
  submitted.for_each(
      [&](int id, const obs::Counter& c) { tenant_lane(lanes, id).submitted = c.value(); });
  completed.for_each(
      [&](int id, const obs::Counter& c) { tenant_lane(lanes, id).completed = c.value(); });
  shed.for_each([&](int id, const obs::Counter& c) { tenant_lane(lanes, id).shed = c.value(); });
}

void read_stage_metrics(const obs::StageMetrics& metrics, BackendStats& s) {
  read_tenant_lanes(metrics.submitted, metrics.completed, metrics.shed, s.tenants);
  s.rejected = 0;
  for (const TenantCounters& lane : s.tenants) s.rejected += lane.shed;
  metrics.request_seconds.for_each(
      [&](int, const obs::Histogram& h) { s.latency += h.snapshot(); });
}

std::vector<std::optional<InferResult>> collect_batch(std::size_t n, const SubmitAt& submit) {
  std::vector<std::optional<InferResult>> results(n);
  util::Mutex mutex;
  util::CondVar cv;
  std::size_t pending = 0;
  const auto wait_all = [&] {
    util::MutexLock lock(mutex);
    while (pending != 0) cv.wait(lock);
  };
  try {
    for (std::size_t i = 0; i < n; ++i) {
      {
        util::MutexLock lock(mutex);
        ++pending;
      }
      const bool ok = submit(i, [&, i](InferResult&& result) {
        util::MutexLock lock(mutex);
        if (!result.shed) results[i] = std::move(result);
        if (--pending == 0) cv.notify_all();
      });
      if (!ok) {
        util::MutexLock lock(mutex);
        if (--pending == 0) cv.notify_all();
      }
    }
  } catch (...) {
    // The throwing entry was never admitted, but earlier ones still hold
    // callbacks into this frame: wait them out before unwinding it.
    {
      util::MutexLock lock(mutex);
      --pending;
    }
    wait_all();
    throw;
  }
  wait_all();
  return results;
}

InferResult infer_until_admitted(
    const std::function<bool(std::function<void(InferResult&&)>)>& submit,
    const std::function<bool()>& accepting) {
  // Closed-loop callers want backpressure: a full queue or an empty budget
  // means "wait your turn", not "drop". Retry with a short sleep so a burst
  // of blocking clients does not spin the admission path — but a backend
  // that stopped accepting will refuse forever, so that case must throw.
  // The answer's latency includes the refused attempts before it.
  const auto first = ServeClock::now();
  for (;;) {
    const auto attempt = ServeClock::now();
    auto result = collect_batch(
        1, [&](std::size_t, std::function<void(InferResult&&)> done) { return submit(std::move(done)); });
    if (result.front()) {
      result.front()->latency_seconds += std::chrono::duration<double>(attempt - first).count();
      return std::move(*result.front());
    }
    if (!accepting()) throw std::runtime_error("infer_sync on a backend that stopped accepting");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

std::vector<std::optional<InferResult>> ServingBackend::infer_batch(
    std::span<const vid_t> vertices, const RequestMeta& meta) {
  return collect_batch(vertices.size(), [&](std::size_t i, std::function<void(InferResult&&)> done) {
    return submit(vertices[i], meta, std::move(done));
  });
}

void ServingBackend::apply_graph_update(const std::function<void()>& apply,
                                        const GraphUpdateNotice& notice) {
  // Default: quiesce, then mutate. Backends with worker loops override with
  // a real barrier (readers parked, caches invalidated per the notice).
  (void)notice;
  drain();
  if (apply) apply();
}

InferResult ServingBackend::infer_sync(vid_t vertex) {
  return infer_until_admitted(
      [&](std::function<void(InferResult&&)> done) { return submit(vertex, std::move(done)); },
      [this] { return accepting(); });
}

}  // namespace distgnn::serve
