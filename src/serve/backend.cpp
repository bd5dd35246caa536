#include "serve/backend.hpp"

#include <chrono>
#include <future>
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

void read_stage_metrics(const obs::StageMetrics& metrics, BackendStats& s) {
  metrics.submitted.for_each(
      [&](int id, const obs::Counter& c) { s.tenant_lane(id).submitted = c.value(); });
  metrics.completed.for_each(
      [&](int id, const obs::Counter& c) { s.tenant_lane(id).completed = c.value(); });
  s.rejected = 0;
  metrics.shed.for_each([&](int id, const obs::Counter& c) {
    const std::uint64_t shed = c.value();
    s.tenant_lane(id).shed = shed;
    s.rejected += shed;
  });
  metrics.request_seconds.for_each(
      [&](int, const obs::Histogram& h) { s.latency += h.snapshot(); });
}

std::vector<std::optional<InferResult>> ServingBackend::infer_batch(
    std::span<const vid_t> vertices, const RequestMeta& meta) {
  const std::size_t n = vertices.size();
  std::vector<std::optional<InferResult>> results(n);
  if (n == 0) return results;

  util::Mutex mutex;
  util::CondVar cv;
  std::size_t pending = 0;
  for (std::size_t i = 0; i < n; ++i) {
    {
      util::MutexLock lock(mutex);
      ++pending;
    }
    const bool ok = submit(vertices[i], meta, [&, i](InferResult&& result) {
      util::MutexLock lock(mutex);
      results[i] = std::move(result);
      if (--pending == 0) cv.notify_all();
    });
    if (!ok) {
      util::MutexLock lock(mutex);
      if (--pending == 0) cv.notify_all();
    }
  }
  util::MutexLock lock(mutex);
  while (pending != 0) cv.wait(lock);
  return results;
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
  // Closed-loop callers want backpressure: a full bounded queue means "wait
  // your turn", not "drop". Retry with a short sleep so a burst of blocking
  // clients does not spin the admission path — but a backend that stopped
  // accepting will reject forever, so that case must throw, not wait.
  std::promise<InferResult> promise;
  auto future = promise.get_future();
  while (!submit(vertex, [&promise](InferResult&& r) { promise.set_value(std::move(r)); })) {
    if (!accepting()) throw std::runtime_error("ServingBackend: infer_sync on a stopped backend");
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return future.get();
}

}  // namespace distgnn::serve
