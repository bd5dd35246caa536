// Sharded metrics registry: named counters and log2-bucket histograms whose
// update path never takes a mutex.
//
// Each tier of the serving tower (server, shard, router, group, model
// registry) and the stream publisher owns one MetricsRegistry, and it is the
// only place that tier increments a counter: its stats() is a typed view
// that reads the handles, its scrape() is the registry's scrape plus its
// children's. A second book beside the registry would drift from it.
//
// The serving hot path completes hundreds of thousands of requests per
// second across many worker threads; a shared mutex-guarded tally
// serializes exactly the threads that must not serialize. Following the
// local/remote-access split of the M&M-systems line
// of work (PAPERS.md, "On Atomic Registers and Randomized Consensus in M&M
// Systems"), every metric here is an array of cache-line-padded per-worker
// shards: a worker increments only its own shard (a relaxed fetch_add on an
// uncontended line — effectively a local register), and a scrape folds the
// shards with acquire loads. Updates are wait-free; scrapes pay the fold.
//
// Registration (name -> metric lookup) does take a small mutex, so call
// sites cache handles — `Counter&`/`Histogram&` references are stable for
// the registry's lifetime. CounterFamily/HistogramFamily cache per-tenant
// handles behind a lock-free read path for the label dimension the serving
// tier actually uses per request.
//
// Histograms use the same log2 bucket geometry as LatencyRecorder: bucket k
// covers [1µs·2^(k-1), 1µs·2^k), with sub-microsecond values in bucket 0 —
// one shared latency_bucket() so the two can never drift.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hpp"

namespace distgnn::obs {

/// Log2 latency buckets from 1µs; bucket 39 tops out near 6 days, far past
/// any latency worth distinguishing. Fixed width keeps HistogramData
/// trivially mergeable (element-wise add).
inline constexpr int kNumBuckets = 40;

/// Exclusive upper bound of bucket k in seconds: 1µs · 2^k.
double bucket_upper_seconds(int k);

/// Bucket index for a latency: 0 for values below 1µs (and non-finite
/// inputs), otherwise the k with value in [1µs·2^(k-1), 1µs·2^k), clamped to
/// the last bucket. Shared by Histogram and LatencyRecorder::histogram().
int latency_bucket(double seconds);

/// A folded histogram: non-cumulative bucket counts plus count/sum. This is
/// the mergeable value type scrapes and BackendStats carry around.
struct HistogramData {
  std::array<std::uint64_t, kNumBuckets> buckets{};
  std::uint64_t count = 0;
  double sum_seconds = 0;

  bool empty() const { return count == 0; }
  double mean_seconds() const {
    return count == 0 ? 0.0 : sum_seconds / static_cast<double>(count);
  }
  /// Quantile estimate from the buckets: the geometric midpoint of the
  /// bucket holding the q-th sample (log2 buckets, so the estimate is within
  /// a factor sqrt(2) of the true value). 0 when empty.
  double quantile(double q) const;

  HistogramData& operator+=(const HistogramData& other);
};

/// Label set rendered as {k="v",...}; kept sorted-by-insertion (callers pass
/// them in a fixed order, so equality is positional).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// One labelled sample in a scrape: either a counter value or a histogram.
struct MetricPoint {
  std::string name;
  Labels labels;
  bool is_histogram = false;
  double value = 0;  // counter reading
  HistogramData histogram;

  bool same_series(const std::string& n, const Labels& l) const {
    return name == n && labels == l;
  }
};

/// A scrape result. add_* folds by (name, labels) — two children of a
/// composite backend emitting the same series merge into one, which is what
/// keeps one exposition free of duplicate series.
struct MetricsSnapshot {
  std::vector<MetricPoint> points;

  void add_counter(const std::string& name, const Labels& labels, double value);
  void add_histogram(const std::string& name, const Labels& labels, const HistogramData& data);
  void merge(const MetricsSnapshot& other);

  const MetricPoint* find(const std::string& name, const Labels& labels = {}) const;
  /// Sum of a counter over every label set it appears with.
  double counter_total(const std::string& name) const;
  /// Fold of a histogram over every label set it appears with.
  HistogramData histogram_total(const std::string& name) const;
  /// Quantile of the named histogram: the exact (name, labels) series when
  /// present, else (with empty labels) the fold over every label set of the
  /// name. 0 for unknown names and for empty/all-zero histograms.
  double quantile(const std::string& name, double q, const Labels& labels = {}) const;
};

namespace detail {
/// Stable per-thread index used to pick a shard. Threads get dense ids in
/// creation order, so a pool of W workers lands on W distinct shards
/// whenever the metric has >= W of them.
int thread_index();
}  // namespace detail

/// Monotonic counter with per-worker shards. add() is a relaxed fetch_add on
/// the calling thread's own cache line; value() folds with acquire loads.
class Counter {
 public:
  explicit Counter(int num_shards);

  void add(std::uint64_t n = 1) {
    shards_[static_cast<std::size_t>(detail::thread_index() % num_shards_)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value() const;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  int num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

/// Log2-bucket histogram with per-worker shards; observe() is three relaxed
/// fetch_adds on the calling thread's shard. Sums are kept in nanoseconds so
/// the shard stays all-integer (no atomic<double> CAS loops).
class Histogram {
 public:
  explicit Histogram(int num_shards);

  void observe(double seconds) {
    Shard& shard = shards_[static_cast<std::size_t>(detail::thread_index() % num_shards_)];
    shard.buckets[static_cast<std::size_t>(latency_bucket(seconds))].fetch_add(
        1, std::memory_order_relaxed);
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum_ns.fetch_add(seconds > 0 ? static_cast<std::uint64_t>(seconds * 1e9) : 0,
                           std::memory_order_relaxed);
  }
  HistogramData snapshot() const;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum_ns{0};
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
  };
  int num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

/// Owner of named metrics. Registration takes a mutex (rare — call sites
/// cache the returned references, which stay valid for the registry's
/// lifetime); the update path through the handles never does.
class MetricsRegistry {
 public:
  /// num_shards 0 = auto (hardware concurrency, clamped to [2, 16]).
  explicit MetricsRegistry(int num_shards = 0);

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const Labels& labels = {});
  Histogram& histogram(const std::string& name, const Labels& labels = {});

  /// Folds every shard of every metric into `out` (acquire loads; see file
  /// comment). Safe to call concurrently with updates.
  void scrape(MetricsSnapshot& out) const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;      // exactly one of counter /
    std::unique_ptr<Histogram> histogram;  // histogram is set
  };

  int num_shards_;
  mutable util::Mutex mutex_;  // registration + scrape enumeration only
  std::deque<Entry> entries_ GUARDED_BY(mutex_);  // deque: stable addresses across growth
};

/// Per-tenant metric handles cached behind a lock-free read: with(id) walks
/// a small published list (acquire loads) and only takes a mutex to register
/// a tenant the first time it appears, as `name` under `base_labels` plus
/// tenant="<id>". The per-request path is a pointer walk over however many
/// tenants exist — no string building, no map.
template <typename Metric>
class MetricFamily {
 public:
  MetricFamily(MetricsRegistry& registry, std::string name, Labels base_labels = {});
  ~MetricFamily();

  MetricFamily(const MetricFamily&) = delete;
  MetricFamily& operator=(const MetricFamily&) = delete;

  Metric& with(int id);
  /// Every (id, metric) registered so far, in first-seen order.
  void for_each(const std::function<void(int, const Metric&)>& fn) const;

 private:
  struct Node {
    int id;
    Metric* metric;
    Node* next;
  };
  MetricsRegistry& registry_;
  std::string name_;
  Labels base_labels_;
  std::atomic<Node*> head_{nullptr};
  util::Mutex grow_mutex_;  // serializes registrations; reads are lock-free
};

using CounterFamily = MetricFamily<Counter>;
using HistogramFamily = MetricFamily<Histogram>;

}  // namespace distgnn::obs
