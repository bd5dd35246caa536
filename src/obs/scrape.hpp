// ScrapeSource: the one-call observability walk over the serving tower.
//
// Every ServingBackend (and the ModelRegistry / Router front doors) exposes
// its telemetry through this interface: scrape() folds the component's own
// metrics into the caller's snapshot and recurses into children, so a single
// scrape of the tower root yields every stage histogram and counter of every
// tier, merged by (name, labels) — ready for render_prometheus.
// collect_traces() is the same walk for completed stage traces
// (leaf servers own the TraceSinks).
//
// Metric naming convention: distgnn_<layer>_<name>{tenant="..."} where
// <layer> identifies the tier that *emitted* the sample (server, sharded,
// router, group, registry) — siblings' series merge, layers' don't. The
// suffixes _submitted_total, _completed_total, _shed_total and
// _request_seconds are reserved for each layer's request accounting: the
// health engine folds them across layers and its stall watchdog assumes
// every layer's submitted = completed + shed + in flight. Other tallies
// (batches, service and halo time, halo rows) take other suffixes.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace distgnn::obs {

class ScrapeSource {
 public:
  virtual ~ScrapeSource() = default;

  /// Folds this component's metrics (and its children's) into `out`. Safe
  /// under live traffic — implementations scrape their MetricsRegistry,
  /// which folds the per-worker shards with acquire loads.
  virtual void scrape(MetricsSnapshot& out) const = 0;

  /// Appends completed sampled traces from this component's sinks (and its
  /// children's). Default: none.
  virtual void collect_traces(std::vector<Trace>& out) const { (void)out; }

  /// Convenience: scrape into a fresh snapshot. (Named distinctly so
  /// overriders of scrape(MetricsSnapshot&) don't hide it.)
  MetricsSnapshot scrape_snapshot() const {
    MetricsSnapshot snapshot;
    scrape(snapshot);
    return snapshot;
  }
};

/// The per-leaf instrumentation bundle: tenant-keyed submitted/completed/
/// shed counters, a per-tenant request-latency histogram, and one per-tenant
/// histogram per serving stage — all named distgnn_<layer>_* so two layers'
/// series never collide while two replicas' series merge on scrape.
class StageMetrics {
 public:
  StageMetrics(MetricsRegistry& registry, const std::string& layer)
      : submitted(registry, "distgnn_" + layer + "_submitted_total"),
        completed(registry, "distgnn_" + layer + "_completed_total"),
        shed(registry, "distgnn_" + layer + "_shed_total"),
        request_seconds(registry, "distgnn_" + layer + "_request_seconds") {
    for (int s = 0; s < kNumStages; ++s)
      stages_[static_cast<std::size_t>(s)] = std::make_unique<HistogramFamily>(
          registry, "distgnn_" + layer + "_stage_seconds",
          Labels{{"stage", stage_name(static_cast<Stage>(s))}});
  }

  HistogramFamily& stage(Stage s) { return *stages_[static_cast<std::size_t>(s)]; }
  const HistogramFamily& stage(Stage s) const { return *stages_[static_cast<std::size_t>(s)]; }

  void observe_stage(Stage s, int tenant, double seconds) {
    stage(s).with(tenant).observe(seconds);
  }

  CounterFamily submitted, completed, shed;
  HistogramFamily request_seconds;

 private:
  std::array<std::unique_ptr<HistogramFamily>, kNumStages> stages_;
};

}  // namespace distgnn::obs
