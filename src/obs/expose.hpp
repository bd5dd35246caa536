// Exposition: scrape snapshots to Prometheus text, traces to Chrome
// trace_event JSON, plus a minimal Prometheus parser for round-trip tests
// and CI assertions.
#pragma once

#include <span>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace distgnn::obs {

class HealthMonitor;

/// Prometheus text exposition format, version 0.0.4: counters as
/// `name{labels} value`, histograms as cumulative `_bucket{le=...}` series
/// plus `_sum`/`_count`. Series are grouped by metric name with one # TYPE
/// line each; label values are escaped per the spec.
std::string render_prometheus(const MetricsSnapshot& snapshot);

/// Chrome trace_event JSON ("X" complete events, microsecond timestamps):
/// one event per recorded stage span, pid = tenant, tid = request id, so
/// chrome://tracing / Perfetto lays requests out as rows grouped by tenant.
/// Traces with tenant == kStreamTrack (delta publications) render as their
/// own "stream" process track with cat "stream".
std::string render_chrome_trace(std::span<const Trace> traces);

/// Minimal parser for the subset render_prometheus emits (enough for a
/// round-trip test and smoke assertions; not a general scraper). Histogram
/// series are folded back into HistogramData. Malformed input throws
/// std::runtime_error naming the offending line: bad or dangling label
/// escapes, non-numeric or trailing-junk values, and truncated/invalid
/// `# HELP` / `# TYPE` comments are all rejected rather than skipped.
MetricsSnapshot parse_prometheus(const std::string& text);

/// The HealthMonitor's state as JSON: tick/series/allocation counts plus the
/// active alerts and the transition history as structured event objects.
std::string render_health_json(const HealthMonitor& monitor);

}  // namespace distgnn::obs
