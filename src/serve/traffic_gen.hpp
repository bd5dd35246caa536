// Load generation for the serving tower: closed-loop clients (a fixed fleet
// of blocking callers — classic replay) and one open-loop driver, where
// requests land at scheduled instants whether or not the target has kept
// up. The target is any submit function — a ServingBackend, a Router or a
// ModelRegistry — so every tier is offered load with the same semantics.
// Open-loop is the mode that actually stresses a serving stack, and real
// traffic is bursty: besides Poisson we generate a 2-state Markov-modulated
// Poisson process (MMPP), whose count variance exceeds its mean (index of
// dispersion > 1, Asanjarani & Nazarathy, arXiv:1802.08400), so queue-delay
// tails appear at mean rates a Poisson test would shrug off.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "serve/inference_server.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

/// Thread-safe latency sink: exact quantiles from retained samples plus a
/// log2-bucketed histogram for printing (bucket geometry shared with the
/// obs metrics registry via obs::latency_bucket, so the two can never
/// drift).
class LatencyRecorder {
 public:
  void record(double seconds);
  std::size_t count() const;
  double quantile(double q) const;  // q in [0, 1]; 0 samples -> 0
  double mean_seconds() const;

  /// Folds another recorder's samples into this one. Per-worker recorders
  /// merge on scrape — each client thread records into its own recorder
  /// contention-free, then the driver folds them once at the end.
  LatencyRecorder& operator+=(const LatencyRecorder& other);

  struct Bucket {
    double upper_seconds = 0;  // exclusive upper bound
    std::size_t count = 0;
  };
  /// Non-empty log2 buckets from 1µs upward, in ascending order.
  std::vector<Bucket> histogram() const;

 private:
  mutable util::Mutex mutex_;
  std::vector<double> samples_ GUARDED_BY(mutex_);
};

/// Zipf(s) popularity over [0, n): rank-r probability ∝ 1/r^s, with ranks
/// mapped to values through a permutation drawn from the construction rng so
/// popularity is uncorrelated with vertex id (and hence graph structure).
/// s = 1.0 is the classic web/query-log skew; larger s is hotter.
class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double s, Rng& rng);
  std::uint64_t draw(Rng& rng) const;
  std::uint64_t size() const { return values_.size(); }
  /// Probability mass of the hottest value (rank 1) — handy for tests and
  /// for sizing caches against a workload.
  double top_probability() const { return cdf_.front() / cdf_.back(); }

 private:
  std::vector<double> cdf_;               // cumulative 1/r^s over ranks
  std::vector<std::uint64_t> values_;     // rank -> value
};

enum class ArrivalProcess { kPoisson, kMmpp };

struct ArrivalConfig {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  double rate = 1000.0;  // Poisson: mean requests/second

  // 2-state MMPP: Poisson at rate{0,1} while in the state, exponential
  // sojourns with the given mean. Defaults give a quiet state and a burst
  // state with the same long-run mean rate as `rate` ~ 1000/s.
  double mmpp_rate0 = 250.0;
  double mmpp_rate1 = 4000.0;
  double mmpp_hold0 = 0.040;  // mean seconds in state 0
  double mmpp_hold1 = 0.010;  // mean seconds in state 1

  std::uint64_t seed = 7;
};

/// `count` arrival offsets in seconds from t=0, ascending. Deterministic for
/// a fixed config.
std::vector<double> generate_arrivals(const ArrivalConfig& config, std::size_t count);

/// Variance-to-mean ratio of arrival counts over fixed windows — ~1 for
/// Poisson, >1 for bursty MMPP. Needs at least two full windows.
double index_of_dispersion(std::span<const double> arrivals, double window_seconds);

struct LoadReport {
  std::string label;
  double duration_seconds = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double qps = 0;  // completed / duration
  double mean_ms = 0, p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double p999_ms = 0;  // shed-rate evaluation needs tail resolution past p99
  double mean_batch = 0;  // server-side micro-batch occupancy during the run
  /// Compact log2-bucketed latency histogram (the full tail shape, for the
  /// bench JSON artifact; quantiles alone hide multi-modal tails).
  std::vector<LatencyRecorder::Bucket> histogram;
};

/// One row per report, rendered through util/table.
std::string render_load_reports(std::span<const LoadReport> reports, const std::string& title);

/// One measured pass of the embedding-cache workload (shared by serve_demo's
/// "embed cache summary" stage and bench_embed_cache, so the demo line and
/// the CI-asserted bench numbers cannot diverge protocol-wise): serve
/// `snapshot` through the embed-forward server with `cache_bytes` of
/// EmbedCache (0 = the uncached A/B baseline) and greedy batching (a hit
/// costs ~a row copy, so any batch-formation delay would drown the effect),
/// warm with one closed-loop Zipf pass, then measure a second pass drawn
/// from a fresh stream (seed + 1) over the same hot set. hit_rate covers the
/// measured pass only.
struct EmbedWorkloadReport {
  LoadReport load;
  double hit_rate = 0;
};
EmbedWorkloadReport run_embed_cache_workload(const Dataset& dataset,
                                             std::shared_ptr<const ModelSnapshot> snapshot,
                                             const ServeConfig& base, std::uint64_t cache_bytes,
                                             double zipf_s, std::uint64_t seed, int clients,
                                             int requests_per_client);

/// Closed-loop load: a fixed fleet of blocking clients against any
/// ServingBackend, querying vertices of its dataset drawn from `seed` with
/// popularity skew `zipf_s` (see LoadStream).
class TrafficGenerator {
 public:
  TrafficGenerator(ServingBackend& server, std::uint64_t seed, double zipf_s = 0.0);

  /// `num_clients` threads each issue `requests_each` blocking queries.
  LoadReport run_closed_loop(int num_clients, int requests_each);

 private:
  ServingBackend& server_;
  Rng rng_;
  std::optional<ZipfSampler> zipf_;  // nullopt = uniform popularity
};

/// One open-loop arrival stream: `num_requests` requests at the instants
/// `arrivals` draws, each for a vertex of the serving dataset and stamped
/// with the stream's deadline, priority mix and tenant.
struct LoadStream {
  ArrivalConfig arrivals;
  std::size_t num_requests = 400;
  /// Vertex-choice and priority-marking stream (independent of the arrival
  /// seed).
  std::uint64_t seed = 5;
  /// Popularity skew: 0 is uniform; s > 0 draws vertices Zipf(s) — rank-r
  /// popularity ∝ 1/r^s over a shuffled vertex order — the heavy-tailed
  /// repeat-query workload that exercises the serving embedding cache.
  double zipf_s = 0.0;
  /// Per-request deadline, counted from the submit instant (0 = none).
  double deadline_seconds = 0;
  /// Fraction of requests marked Priority::kLow (deterministic per seed).
  double low_priority_fraction = 0;
  /// Tenant every request of the stream carries in its RequestMeta.
  tenant_t tenant = kDefaultTenant;
};

/// Submits one request to whatever fronts the run — a ServingBackend, a
/// Router, a ModelRegistry. Returns false when the request was refused;
/// `done` then never runs.
using SubmitFn =
    std::function<bool(vid_t, const RequestMeta&, std::function<void(InferResult&&)>)>;
/// Submits straight into `target`, a ServingBackend or a Router.
template <class Target>
SubmitFn submit_to(Target& target) {
  return [&target](vid_t v, const RequestMeta& meta, std::function<void(InferResult&&)> done) {
    return target.submit(v, meta, std::move(done));
  };
}

/// The open-loop driver. Every stream's requests land at their scheduled
/// instants, measured from one shared t=0, whether or not the target keeps
/// up; then the driver waits for every accepted request to complete.
/// `backend_of(tenant)` is the backend serving a stream: its dataset bounds
/// the vertex draw, its batch counters give LoadReport::mean_batch.
/// reports[i] covers streams[i]: latencies of accepted requests only,
/// refusals counted as rejected, duration from t=0 to the stream's last
/// answer.
std::vector<LoadReport> run_open_loop(
    std::span<const LoadStream> streams,
    const std::function<const ServingBackend&(tenant_t)>& backend_of, const SubmitFn& submit);
/// One stream served by `backend`.
LoadReport run_open_loop(const LoadStream& stream, const ServingBackend& backend,
                         const SubmitFn& submit);

}  // namespace distgnn::serve
