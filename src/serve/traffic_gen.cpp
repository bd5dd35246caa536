#include "serve/traffic_gen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>

#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace distgnn::serve {

void LatencyRecorder::record(double seconds) {
  util::MutexLock lock(mutex_);
  samples_.push_back(seconds);
}

std::size_t LatencyRecorder::count() const {
  util::MutexLock lock(mutex_);
  return samples_.size();
}

double LatencyRecorder::quantile(double q) const {
  util::MutexLock lock(mutex_);
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  const auto idx = static_cast<std::size_t>(
      std::clamp(q, 0.0, 1.0) * static_cast<double>(sorted.size() - 1) + 0.5);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(idx), sorted.end());
  return sorted[idx];
}

double LatencyRecorder::mean_seconds() const {
  util::MutexLock lock(mutex_);
  if (samples_.empty()) return 0.0;
  double total = 0;
  for (const double s : samples_) total += s;
  return total / static_cast<double>(samples_.size());
}

LatencyRecorder& LatencyRecorder::operator+=(const LatencyRecorder& other) {
  if (this == &other) return *this;
  std::vector<double> theirs;
  {
    util::MutexLock lock(other.mutex_);
    theirs = other.samples_;
  }
  util::MutexLock lock(mutex_);
  samples_.insert(samples_.end(), theirs.begin(), theirs.end());
  return *this;
}

std::vector<LatencyRecorder::Bucket> LatencyRecorder::histogram() const {
  util::MutexLock lock(mutex_);
  // Shared log2 bucket geometry (obs::latency_bucket): bucket k covers
  // [1µs·2^(k-1), 1µs·2^k), so the pass is O(samples) regardless of how wide
  // the tail spreads — and the printed buckets can never drift from the
  // scrapeable obs histograms.
  std::map<int, std::size_t> counts;
  for (const double s : samples_) ++counts[obs::latency_bucket(s)];
  std::vector<Bucket> buckets;
  buckets.reserve(counts.size());
  for (const auto& [k, count] : counts) buckets.push_back({obs::bucket_upper_seconds(k), count});
  return buckets;
}

std::vector<double> generate_arrivals(const ArrivalConfig& config, std::size_t count) {
  std::vector<double> arrivals;
  arrivals.reserve(count);
  Rng rng(config.seed);
  const auto exponential = [&rng](double mean) {
    double u = rng.next_double();
    while (u <= 1e-300) u = rng.next_double();
    return -mean * std::log(u);
  };

  if (config.process == ArrivalProcess::kPoisson) {
    if (config.rate <= 0) throw std::invalid_argument("generate_arrivals: rate must be > 0");
    double t = 0;
    for (std::size_t i = 0; i < count; ++i) {
      t += exponential(1.0 / config.rate);
      arrivals.push_back(t);
    }
    return arrivals;
  }

  // 2-state MMPP: Poisson arrivals at the current state's rate; state
  // sojourns are exponential. A candidate arrival beyond the sojourn end is
  // discarded and redrawn in the next state (memorylessness makes this
  // exact).
  if (config.mmpp_rate0 <= 0 || config.mmpp_rate1 <= 0 || config.mmpp_hold0 <= 0 ||
      config.mmpp_hold1 <= 0)
    throw std::invalid_argument("generate_arrivals: MMPP rates/holds must be > 0");
  double t = 0;
  int state = 0;
  double state_end = exponential(config.mmpp_hold0);
  while (arrivals.size() < count) {
    const double rate = state == 0 ? config.mmpp_rate0 : config.mmpp_rate1;
    const double candidate = t + exponential(1.0 / rate);
    if (candidate < state_end) {
      t = candidate;
      arrivals.push_back(t);
    } else {
      t = state_end;
      state = 1 - state;
      state_end = t + exponential(state == 0 ? config.mmpp_hold0 : config.mmpp_hold1);
    }
  }
  return arrivals;
}

double index_of_dispersion(std::span<const double> arrivals, double window_seconds) {
  if (arrivals.empty() || window_seconds <= 0) return 0.0;
  const double span = arrivals.back();
  const auto num_windows = static_cast<std::size_t>(span / window_seconds);
  if (num_windows < 2) return 0.0;
  std::vector<std::size_t> counts(num_windows, 0);
  for (const double t : arrivals) {
    const auto w = static_cast<std::size_t>(t / window_seconds);
    if (w < num_windows) ++counts[w];
  }
  double mean = 0;
  for (const std::size_t c : counts) mean += static_cast<double>(c);
  mean /= static_cast<double>(num_windows);
  if (mean == 0) return 0.0;
  double var = 0;
  for (const std::size_t c : counts) {
    const double d = static_cast<double>(c) - mean;
    var += d * d;
  }
  var /= static_cast<double>(num_windows);
  return var / mean;
}

std::string render_load_reports(std::span<const LoadReport> reports, const std::string& title) {
  TextTable table({"load", "offered", "done", "rejected", "QPS", "mean ms", "p50 ms", "p95 ms",
                   "p99 ms", "p99.9 ms", "batch"});
  for (const LoadReport& r : reports)
    table.add_row({r.label, TextTable::fmt_int(static_cast<long long>(r.offered)),
                   TextTable::fmt_int(static_cast<long long>(r.completed)),
                   TextTable::fmt_int(static_cast<long long>(r.rejected)), TextTable::fmt(r.qps, 0),
                   TextTable::fmt(r.mean_ms), TextTable::fmt(r.p50_ms), TextTable::fmt(r.p95_ms),
                   TextTable::fmt(r.p99_ms), TextTable::fmt(r.p999_ms),
                   TextTable::fmt(r.mean_batch, 2)});
  return table.render(title);
}

ZipfSampler::ZipfSampler(std::uint64_t n, double s, Rng& rng) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (s <= 0) throw std::invalid_argument("ZipfSampler: s must be > 0");
  cdf_.reserve(static_cast<std::size_t>(n));
  double total = 0;
  for (std::uint64_t r = 1; r <= n; ++r) {
    total += std::pow(static_cast<double>(r), -s);
    cdf_.push_back(total);
  }
  values_.resize(static_cast<std::size_t>(n));
  for (std::uint64_t v = 0; v < n; ++v) values_[static_cast<std::size_t>(v)] = v;
  for (std::size_t i = values_.size(); i > 1; --i)
    std::swap(values_[i - 1], values_[rng.next_below(i)]);
}

std::uint64_t ZipfSampler::draw(Rng& rng) const {
  const double u = rng.next_double() * cdf_.back();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(),
                               static_cast<std::ptrdiff_t>(cdf_.size()) - 1));
  return values_[rank];
}

EmbedWorkloadReport run_embed_cache_workload(const Dataset& dataset,
                                             std::shared_ptr<const ModelSnapshot> snapshot,
                                             const ServeConfig& base, std::uint64_t cache_bytes,
                                             double zipf_s, std::uint64_t seed, int clients,
                                             int requests_per_client) {
  ServeConfig cfg = base;
  cfg.embed_forward = true;
  cfg.embed_cache_bytes = cache_bytes;
  cfg.max_batch_delay = std::chrono::microseconds(0);  // greedy batching (see header)
  InferenceServer server(dataset, cfg);
  server.publish(std::move(snapshot));
  server.start();

  {
    TrafficGenerator warmup(server, seed, zipf_s);
    (void)warmup.run_closed_loop(clients, requests_per_client);
  }
  const CacheStats warmed = server.stats().embed_cache;

  EmbedWorkloadReport report;
  TrafficGenerator traffic(server, seed + 1, zipf_s);
  report.load = traffic.run_closed_loop(clients, requests_per_client);
  const CacheStats total = server.stats().embed_cache;
  CacheStats measured;
  measured.accesses = total.accesses - warmed.accesses;
  measured.misses = total.misses - warmed.misses;
  report.hit_rate = measured.hit_rate();
  server.stop();
  return report;
}

namespace {

/// Seed of the Zipf rank -> vertex shuffle, fixed and separate from every
/// draw seed: generators and streams with different seeds issue *different
/// request sequences over the same hot set*, which is what makes warm-cache
/// measurements honest.
constexpr std::uint64_t kZipfPermSeed = 71;

/// Zipf(s) popularity over the dataset's vertices; nullopt (uniform) at s = 0.
std::optional<ZipfSampler> make_zipf(vid_t num_vertices, double zipf_s) {
  if (zipf_s < 0) throw std::invalid_argument("load generation: zipf_s must be >= 0");
  if (zipf_s == 0) return std::nullopt;
  Rng perm_rng(kZipfPermSeed);
  return ZipfSampler(static_cast<std::uint64_t>(num_vertices), zipf_s, perm_rng);
}

vid_t draw_vertex(const std::optional<ZipfSampler>& zipf, vid_t num_vertices, Rng& rng) {
  if (zipf) return static_cast<vid_t>(zipf->draw(rng));
  return static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(num_vertices)));
}

LoadReport make_report(std::string label, double duration, std::uint64_t offered,
                       std::uint64_t rejected, const LatencyRecorder& latencies,
                       const BackendStats& before, const BackendStats& after) {
  LoadReport report;
  report.label = std::move(label);
  report.duration_seconds = duration;
  report.offered = offered;
  report.completed = offered - rejected;
  report.rejected = rejected;
  report.qps = duration > 0 ? static_cast<double>(report.completed) / duration : 0.0;
  report.mean_ms = latencies.mean_seconds() * 1e3;
  report.p50_ms = latencies.quantile(0.50) * 1e3;
  report.p95_ms = latencies.quantile(0.95) * 1e3;
  report.p99_ms = latencies.quantile(0.99) * 1e3;
  report.p999_ms = latencies.quantile(0.999) * 1e3;
  report.histogram = latencies.histogram();
  BackendStats window;
  window.batches = after.batches - before.batches;
  window.batched_requests = after.batched_requests - before.batched_requests;
  report.mean_batch = window.mean_batch();
  return report;
}

}  // namespace

TrafficGenerator::TrafficGenerator(ServingBackend& server, std::uint64_t seed, double zipf_s)
    : server_(server), rng_(seed), zipf_(make_zipf(server.dataset().num_vertices(), zipf_s)) {}

LoadReport TrafficGenerator::run_closed_loop(int num_clients, int requests_each) {
  if (num_clients < 1 || requests_each < 1)
    throw std::invalid_argument("run_closed_loop: clients and requests must be >= 1");
  const BackendStats before = server_.stats();

  // Hand each client its own pre-drawn vertex list so the workload is
  // deterministic regardless of thread interleaving.
  const vid_t num_vertices = server_.dataset().num_vertices();
  std::vector<std::vector<vid_t>> targets(static_cast<std::size_t>(num_clients));
  for (auto& list : targets) {
    list.reserve(static_cast<std::size_t>(requests_each));
    for (int i = 0; i < requests_each; ++i) list.push_back(draw_vertex(zipf_, num_vertices, rng_));
  }

  // Each client records into its own recorder; the fold at the end is the
  // only cross-thread touch, so the measurement adds no lock contention of
  // its own to the closed loop.
  std::vector<LatencyRecorder> per_client(static_cast<std::size_t>(num_clients));
  const auto begin = ServeClock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      LatencyRecorder& mine = per_client[static_cast<std::size_t>(c)];
      for (const vid_t v : targets[static_cast<std::size_t>(c)]) {
        const InferResult result = server_.infer_sync(v);
        mine.record(result.latency_seconds);
      }
    });
  }
  for (auto& t : clients) t.join();
  const double duration = std::chrono::duration<double>(ServeClock::now() - begin).count();
  LatencyRecorder latencies;
  for (const LatencyRecorder& r : per_client) latencies += r;

  const auto total = static_cast<std::uint64_t>(num_clients) *
                     static_cast<std::uint64_t>(requests_each);
  return make_report("closed(" + std::to_string(num_clients) + ")", duration, total, 0,
                     latencies, before, server_.stats());
}

std::vector<LoadReport> run_open_loop(
    std::span<const LoadStream> streams,
    const std::function<const ServingBackend&(tenant_t)>& backend_of, const SubmitFn& submit) {
  // Every request is drawn up front, then the streams merge into one
  // timeline: a single loop issues them all against one t=0.
  struct Arrival {
    double offset = 0;
    std::size_t stream = 0;
    vid_t vertex = kInvalidVertex;
    Priority priority = Priority::kHigh;
  };
  struct Tally {
    BackendStats before;
    LatencyRecorder latencies;
    std::uint64_t rejected = 0;
    std::size_t accounted = 0;
    double seconds = 0;  // t=0 -> the stream's last answer or refusal
  };
  std::vector<Arrival> timeline;
  std::vector<Tally> tallies(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const LoadStream& stream = streams[s];
    const ServingBackend& backend = backend_of(stream.tenant);
    const vid_t num_vertices = backend.dataset().num_vertices();
    const std::optional<ZipfSampler> zipf = make_zipf(num_vertices, stream.zipf_s);
    Rng rng(stream.seed);
    for (const double offset : generate_arrivals(stream.arrivals, stream.num_requests)) {
      const vid_t vertex = draw_vertex(zipf, num_vertices, rng);
      const bool low = stream.low_priority_fraction > 0 &&
                       rng.next_double() < stream.low_priority_fraction;
      timeline.push_back({offset, s, vertex, low ? Priority::kLow : Priority::kHigh});
    }
    tallies[s].before = backend.stats();
  }
  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Arrival& a, const Arrival& b) { return a.offset < b.offset; });

  util::Mutex mutex;
  util::CondVar drained;
  std::size_t outstanding = timeline.size();
  const auto begin = ServeClock::now();
  const auto account = [&](std::size_t s, bool rejected) {
    util::MutexLock lock(mutex);
    Tally& tally = tallies[s];
    if (rejected) ++tally.rejected;
    if (++tally.accounted == streams[s].num_requests)
      tally.seconds = std::chrono::duration<double>(ServeClock::now() - begin).count();
    if (--outstanding == 0) drained.notify_all();
  };
  for (const Arrival& arrival : timeline) {
    std::this_thread::sleep_until(begin + std::chrono::duration<double>(arrival.offset));
    const std::size_t s = arrival.stream;
    const LoadStream& stream = streams[s];
    RequestMeta meta;
    meta.priority = arrival.priority;
    meta.tenant = stream.tenant;
    if (stream.deadline_seconds > 0)
      meta.deadline = ServeClock::now() + std::chrono::duration_cast<ServeClock::duration>(
          std::chrono::duration<double>(stream.deadline_seconds));
    const bool accepted = submit(arrival.vertex, meta, [&, s](InferResult&& result) {
      tallies[s].latencies.record(result.latency_seconds);
      account(s, false);
    });
    if (!accepted) account(s, true);
  }
  {
    util::MutexLock lock(mutex);
    while (outstanding != 0) drained.wait(lock);
  }

  std::vector<LoadReport> reports;
  reports.reserve(streams.size());
  for (std::size_t s = 0; s < streams.size(); ++s) {
    const LoadStream& stream = streams[s];
    const Tally& tally = tallies[s];
    reports.push_back(make_report(
        stream.arrivals.process == ArrivalProcess::kPoisson ? "poisson" : "mmpp", tally.seconds,
        stream.num_requests, tally.rejected, tally.latencies, tally.before,
        backend_of(stream.tenant).stats()));
  }
  return reports;
}

LoadReport run_open_loop(const LoadStream& stream, const ServingBackend& backend,
                         const SubmitFn& submit) {
  return run_open_loop(
      std::span<const LoadStream>(&stream, 1),
      [&backend](tenant_t) -> const ServingBackend& { return backend; }, submit)[0];
}

}  // namespace distgnn::serve
