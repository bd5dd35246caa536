// Performance ledger driver: one workload per process, timed only through
// the library's public functions.
//
// Every input (dataset seed, arrival, vertex and delta streams) derives from
// the run's --seed; every rate and epoch count is a fixed constant scaled by
// --seconds, never calibrated from the code's own speed, so a faster build
// is offered exactly the same work as a slower one.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/backend.hpp"
#include "util/sync.hpp"

namespace distgnn::ledger {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}
inline double seconds_since(Clock::time_point begin) { return seconds_between(begin, Clock::now()); }

/// Runs `fn` and returns its wall time in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// Independent input stream `stream` of the run seed (splitmix64 mix).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; +inf entries sort
/// last, so a failed request counted as +inf drags the tail up. 0 if empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// One workload invocation as the runner passed it.
struct RunSpec {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // measured window
  bool trace = false;   // per-layer run: traced tiers, layer probes, trace file
  bool smoke = false;   // one set-up instead of several (windows already short)
  std::string trace_dir;

  /// Set-ups per run; setup_s is their median.
  int setup_reps() const { return smoke ? 1 : 3; }
  /// Untimed work before a measurement. The first parallel work after an
  /// idle spell runs several times slower while the host schedules the
  /// vCPUs back in, and the serving caches take two to three seconds of
  /// traffic to fill: before that, the median latency of serve-mixed is
  /// three times its steady value.
  double warmup_seconds() const { return std::min(3.0, seconds / 5); }
};

/// Bench-side spans around public calls (dataset build, partition,
/// construct, each epoch / publish, the window). Thread-safe: the mixed
/// workload's writer thread records publishes.
class SpanLog {
 public:
  void add(const std::string& name, Clock::time_point begin, Clock::time_point end);
  /// Times `fn` into a span and returns its seconds.
  template <typename Fn>
  double time(const std::string& name, Fn&& fn) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    add(name, t0, t1);
    return seconds_between(t0, t1);
  }

  /// Chrome trace_event JSON holding the serving tower's request traces
  /// (render_chrome_trace) plus these spans on their own "ledger" track.
  std::string render(std::vector<obs::Trace> tower_traces) const;

 private:
  struct Entry {
    std::string name;
    Clock::time_point begin, end;
  };
  mutable util::Mutex mutex_;
  std::vector<Entry> entries_ GUARDED_BY(mutex_);
};

/// What one run reports: metrics by name with their unit, correctness
/// probes, and the attempted/failed operation counts.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void probe(const std::string& name, bool passed);
  void count(std::uint64_t attempted, std::uint64_t failed);
  std::string to_json(const RunSpec& spec) const;

  SpanLog spans;
  /// Request and delta traces collected from the serving tower (traced runs).
  std::vector<obs::Trace> tower_traces;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, bool> probes_;
  std::uint64_t attempted_ = 0, failed_ = 0;
};

/// A run's timing over its `n` operations (epochs or requests); `at(q)`
/// gives the q-quantile in seconds. BENCHMARK.json gates `p10_ms`, what an
/// operation takes when the host does not stall it. On a shared host,
/// spells in which idle vCPUs wake late slow a varying share of each run's
/// operations: across runs they moved the median latency of serve-mixed by
/// 0.30 of itself and its 10th percentile by 0.14. The median `p50_ms` and
/// `tail_ms`, the highest percentile with at least ten operations beyond it
/// (`tail_q`), are reported alongside.
template <typename QuantileFn>
void report_timing(Report& report, std::size_t n, QuantileFn&& at) {
  const double tail_q = n > 20 ? 1.0 - 10.0 / static_cast<double>(n) : 0.5;
  report.metric("p10_ms", at(0.1) * 1e3, "ms");
  report.metric("p50_ms", at(0.5) * 1e3, "ms");
  report.metric("tail_ms", at(tail_q) * 1e3, "ms");
  report.metric("tail_q", tail_q, "quantile");
  report.metric("n", static_cast<double>(n), "count");
}

/// Fixed workload inputs.
inline constexpr const char* kDatasetName = "proteins-sim";
/// Busy threads of a training workload (OpenMP threads or ranks): one per
/// core of the 4-core host. On a shared host each core slows in its own
/// spells; work spread over all four averages them, where fewer threads
/// ride whichever cores the scheduler picks. Across 8 seeds the quartiles
/// of epoch time moved by 0.06 to 0.09 of themselves with 4 threads and by
/// up to 0.21 with 2.
inline constexpr int kThreads = 4;

/// proteins-sim at `scale`, its graph generated from the run seed; both CSRs
/// are built here so later timings exclude their lazy construction.
Dataset build_dataset(std::uint64_t seed, double scale);

/// Open-loop result: latency of every request measured from its *due*
/// instant (so a stall also charges the requests queued behind it), +inf for
/// a request the tier refused. `lag` is how late each submit ran.
struct OpenLoopResult {
  std::vector<double> latency;
  std::vector<double> lag;
  std::uint64_t failed = 0;
  double window_seconds = 0;  // first submit -> last due instant
  double drain_seconds = 0;   // last due instant -> last completion

  /// Latency quantile in seconds. A quantile that lands on a refused
  /// request is charged the whole window, a finite stand-in for +inf.
  double p(double q) const;
  double lag_p99() const { return quantile(lag, 0.99); }
  double failed_frac() const {
    return latency.empty() ? 0.0 : static_cast<double>(failed) / static_cast<double>(latency.size());
  }
};

/// Issues request i at `start + offsets[i]` seconds through
/// `submit(vertex, done)`, which returns false when the request was refused.
/// Waits until every admitted request has completed.
using SubmitFn = std::function<bool(vid_t, std::function<void(serve::InferResult&&)>)>;
OpenLoopResult run_open_loop(Clock::time_point start, std::span<const double> offsets,
                             std::span<const vid_t> vertices, const SubmitFn& submit);

/// Sleeps until shortly before `due`, then spins: sleep_for alone overshoots
/// by tens of microseconds, a large share of a 125 µs inter-arrival gap.
void wait_until(Clock::time_point due);

inline Clock::time_point at_offset(Clock::time_point start, double offset_seconds) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_seconds));
}

/// Per-layer probes every traced run reports, timed through the public
/// kernel, GEMM and communicator calls.
void measure_kernel_layers(const Dataset& dataset, const RunSpec& spec, Report& report);

/// Window-only view of one stage histogram of a scrape:
/// Δsum / Δcount between two scrapes, in microseconds.
double stage_mean_us(const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after,
                     const std::string& histogram, const std::string& stage);

void run_train_1s(const RunSpec& spec, Report& report);
void run_train_4r(const RunSpec& spec, Report& report);
void run_serve_read(const RunSpec& spec, Report& report);
void run_serve_mixed(const RunSpec& spec, Report& report);

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

}  // namespace distgnn::ledger
