#include "ledger.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "comm/world.hpp"
#include "kernels/aggregate.hpp"
#include "nn/gemm.hpp"
#include "obs/expose.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace distgnn::ledger {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ (stream * 0x9e3779b97f4a7c15ULL));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0.0) return values[lo];
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + frac * (values[hi] - values[lo]);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ------------------------------------------------------------------ spans

void SpanLog::add(const std::string& name, Clock::time_point begin, Clock::time_point end) {
  util::MutexLock lock(mutex_);
  entries_.push_back({name, begin, end});
}

std::string SpanLog::render(std::vector<obs::Trace> tower_traces) const {
  std::vector<Entry> entries;
  {
    util::MutexLock lock(mutex_);
    entries = entries_;
  }
  // render_chrome_trace offsets timestamps to its earliest trace. An empty
  // marker trace at the earliest ledger span, on a track that already
  // exists, moves that origin so both event sets share one timeline.
  double t0 = std::numeric_limits<double>::infinity();
  for (const Entry& e : entries) t0 = std::min(t0, obs::TraceContext::seconds(e.begin));
  for (const obs::Trace& t : tower_traces) t0 = std::min(t0, t.begin_seconds);
  const bool tower_empty = tower_traces.empty();
  if (!tower_empty && !entries.empty()) {
    obs::Trace marker;
    marker.tenant = tower_traces.front().tenant;
    marker.begin_seconds = marker.end_seconds = t0;
    tower_traces.push_back(marker);
  }
  std::string json = obs::render_chrome_trace(tower_traces);
  if (entries.empty()) return json;

  constexpr int kLedgerTrack = -2;
  std::ostringstream extra;
  extra << (tower_empty ? "\n  " : ",\n  ") << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
        << kLedgerTrack << ",\"args\":{\"name\":\"ledger\"}}";
  for (const Entry& e : entries) {
    char ts[64], dur[64];
    std::snprintf(ts, sizeof(ts), "%.3f", (obs::TraceContext::seconds(e.begin) - t0) * 1e6);
    std::snprintf(dur, sizeof(dur), "%.3f", seconds_between(e.begin, e.end) * 1e6);
    extra << ",\n  {\"name\":\"" << e.name << "\",\"cat\":\"ledger\",\"ph\":\"X\",\"ts\":" << ts
          << ",\"dur\":" << dur << ",\"pid\":" << kLedgerTrack << ",\"tid\":0}";
  }
  const std::size_t close = json.rfind("\n]}");
  if (close == std::string::npos) throw std::runtime_error("unexpected chrome trace layout");
  json.insert(close, extra.str());
  return json;
}

// ----------------------------------------------------------------- report

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::probe(const std::string& name, bool passed) { probes_[name] = passed; }

void Report::count(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ = attempted;
  failed_ = failed;
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";  // the runner rejects it
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

std::string Report::to_json(const RunSpec& spec) const {
  bool correct = !probes_.empty();
  for (const auto& [name, passed] : probes_) correct = correct && passed;
  std::ostringstream out;
  out << "{\"workload\":\"" << spec.workload << "\",\"seed\":" << spec.seed
      << ",\"trace\":" << (spec.trace ? "true" : "false")
      << ",\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted_
      << ",\"failed\":" << failed_ << ",\"probes\":{";
  const char* sep = "";
  for (const auto& [name, passed] : probes_) {
    out << sep << "\"" << name << "\":" << (passed ? "true" : "false");
    sep = ",";
  }
  out << "},\"metrics\":{";
  sep = "";
  for (const auto& [name, entry] : metrics_) {
    out << sep << "\"" << name << "\":{\"value\":" << json_number(entry.first) << ",\"unit\":\""
        << entry.second << "\"}";
    sep = ",";
  }
  out << "}}";
  return out.str();
}

// ---------------------------------------------------------------- inputs

Dataset build_dataset(std::uint64_t seed, double scale) {
  DatasetSpec spec = dataset_spec(kDatasetName);
  spec.seed = derive_seed(seed, /*stream=*/1);
  Dataset dataset = make_dataset(spec, scale);
  (void)dataset.graph.in_csr();
  (void)dataset.graph.out_csr();
  return dataset;
}

// -------------------------------------------------------------- open loop

void wait_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(200);
  for (;;) {
    const auto now = Clock::now();
    if (now >= due) return;
    if (due - now > kSpin) std::this_thread::sleep_for(due - now - kSpin);
  }
}

OpenLoopResult run_open_loop(Clock::time_point start, std::span<const double> offsets,
                             std::span<const vid_t> vertices, const SubmitFn& submit) {
  if (offsets.size() != vertices.size()) throw std::invalid_argument("offsets/vertices mismatch");
  const std::size_t n = offsets.size();
  OpenLoopResult result;
  result.latency.assign(n, std::numeric_limits<double>::infinity());
  result.lag.assign(n, 0.0);
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::int64_t> last_done_ns{0};

  for (std::size_t i = 0; i < n; ++i) {
    const auto due = at_offset(start, offsets[i]);
    wait_until(due);
    result.lag[i] = seconds_since(due);
    const bool admitted = submit(vertices[i], [&, i, due](serve::InferResult&&) {
      const auto now = Clock::now();
      result.latency[i] = seconds_between(due, now);
      const std::int64_t ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - start).count();
      std::int64_t seen = last_done_ns.load(std::memory_order_relaxed);
      while (seen < ns && !last_done_ns.compare_exchange_weak(seen, ns)) {
      }
      completed.fetch_add(1, std::memory_order_release);
    });
    if (!admitted) ++result.failed;
  }

  // Every admitted request is answered (the tower's contract); the bound
  // only turns a lost answer into an error instead of a hang.
  const std::uint64_t admitted = n - result.failed;
  const auto give_up = Clock::now() + std::chrono::seconds(60);
  while (completed.load(std::memory_order_acquire) < admitted) {
    if (Clock::now() > give_up) throw std::runtime_error("open loop: requests never completed");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (n > 0) {
    result.window_seconds = offsets.back();
    result.drain_seconds =
        std::max(0.0, static_cast<double>(last_done_ns.load()) * 1e-9 - offsets.back());
  }
  return result;
}

double OpenLoopResult::p(double q) const {
  const double value = quantile(latency, q);
  return std::isinf(value) ? window_seconds : value;
}

// ----------------------------------------------------------- layer probes

namespace {

/// Median seconds of `fn` over 9 calls, after `warmup` seconds of untimed
/// calls.
template <typename Fn>
double steady_median(double warmup, Fn&& fn) {
  const auto warm_until = at_offset(Clock::now(), warmup);
  while (Clock::now() < warm_until) fn();
  std::vector<double> times;
  for (int rep = 0; rep < 9; ++rep) times.push_back(timed(fn));
  return median(times);
}

}  // namespace

void measure_kernel_layers(const Dataset& dataset, const RunSpec& spec, Report& report) {
  par::set_num_threads(kThreads);
  const double warmup = spec.warmup_seconds();

  // kernels.ap_gbps: one forward aggregation at the dataset's feature width;
  // bytes are computed (each edge reads a source row, each destination row
  // is read and written once), not measured.
  const auto n = static_cast<std::size_t>(dataset.num_vertices());
  const auto d = static_cast<std::size_t>(dataset.feature_dim());
  const BlockedCsr blocks(dataset.graph.in_csr(), auto_num_blocks(dataset.num_vertices(), d));
  DenseMatrix out;
  const double ap_seconds = steady_median(warmup, [&] {
    out.resize_discard(n, d, 0);
    aggregate_prepartitioned(blocks, dataset.features.cview(), {}, out.view(), ApConfig{});
  });
  const double ap_bytes = 4.0 * static_cast<double>(d) *
                          (static_cast<double>(dataset.num_edges()) + 2.0 * static_cast<double>(n));
  report.metric("kernels.ap_gbps", ap_bytes / ap_seconds / 1e9, "GB/s");

  // nn.gemm_gflops: the first layer's projection shape, 65536x128 * 128x32.
  constexpr std::size_t kM = 65536, kK = 128, kN = 32;
  Rng rng(derive_seed(spec.seed, /*stream=*/2));
  DenseMatrix a(kM, kK), b(kK, kN), c(kM, kN);
  for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] = rng.uniform(-1, 1);
  for (std::size_t i = 0; i < b.size(); ++i) b.data()[i] = rng.uniform(-1, 1);
  const double gemm_seconds = steady_median(warmup, [&] { gemm(a.cview(), b.cview(), c.view()); });
  report.metric("nn.gemm_gflops", 2.0 * kM * kK * kN / gemm_seconds / 1e9, "GFLOP/s");

  // comm.p2p_gbps: ping-pong between two ranks at a 1 MiB payload. Rank 1
  // echoes until an empty message.
  constexpr std::size_t kFloats = 1 << 18;
  constexpr int kRoundTrips = 10;
  double p2p_seconds = 0;
  World world(2);
  world.run([&](Communicator& comm) {
    if (comm.rank() == 1) {
      for (;;) {
        std::vector<real_t> message = comm.recv(0, 0);
        if (message.empty()) return;
        comm.send(0, 0, std::move(message));
      }
    }
    const std::vector<real_t> payload(kFloats, 1.0f);
    p2p_seconds = steady_median(warmup, [&] {
      for (int i = 0; i < kRoundTrips; ++i) {
        comm.send(1, 0, payload);
        (void)comm.recv(1, 0);
      }
    });
    comm.send(1, 0, {});
  });
  const double p2p_bytes = 2.0 * kRoundTrips * kFloats * sizeof(real_t);
  report.metric("comm.p2p_gbps", p2p_bytes / p2p_seconds / 1e9, "GB/s");
}

double stage_mean_us(const obs::MetricsSnapshot& before, const obs::MetricsSnapshot& after,
                     const std::string& histogram, const std::string& stage) {
  const auto fold = [&](const obs::MetricsSnapshot& snap) {
    obs::HistogramData total;
    for (const obs::MetricPoint& point : snap.points) {
      if (point.name != histogram || !point.is_histogram) continue;
      for (const auto& [key, value] : point.labels)
        if (key == "stage" && value == stage) total += point.histogram;
    }
    return total;
  };
  const obs::HistogramData a = fold(before), b = fold(after);
  const auto count = static_cast<double>(b.count - a.count);
  return count > 0 ? (b.sum_seconds - a.sum_seconds) / count * 1e6 : 0.0;
}

}  // namespace distgnn::ledger
