#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <thread>
#include <type_traits>

namespace distgnn::obs {

double bucket_upper_seconds(int k) { return 1e-6 * std::ldexp(1.0, k); }

int latency_bucket(double seconds) {
  if (!(seconds >= 1e-6)) return 0;  // also catches NaN
  int k = static_cast<int>(std::floor(std::log2(seconds / 1e-6))) + 1;
  // Guard log2 rounding in both directions so exact powers of two land in
  // the bucket whose *exclusive* upper bound they equal the lower edge of.
  while (k < kNumBuckets - 1 && seconds >= bucket_upper_seconds(k)) ++k;
  while (k > 1 && seconds < bucket_upper_seconds(k - 1)) --k;
  return std::min(k, kNumBuckets - 1);
}

namespace {

// Geometric midpoint of [upper/2, upper): upper / sqrt(2). Bucket 0 is
// "below 1µs" — report its upper edge.
double bucket_estimate(int k) {
  const double upper = bucket_upper_seconds(k);
  return k == 0 ? upper : upper / std::sqrt(2.0);
}

}  // namespace

double HistogramData::quantile(double q) const {
  if (count == 0) return 0.0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(count);
  std::uint64_t seen = 0;
  int last_nonzero = -1;
  for (int k = 0; k < kNumBuckets; ++k) {
    if (buckets[static_cast<std::size_t>(k)] == 0) continue;
    last_nonzero = k;
    seen += buckets[static_cast<std::size_t>(k)];
    if (static_cast<double>(seen) >= target) return bucket_estimate(k);
  }
  // count > 0 with every bucket zero (hand-built or parsed data): 0 is the
  // defined answer, not the ~6-day top bucket.
  if (last_nonzero < 0) return 0.0;
  // count exceeds the bucket sum (inconsistent input): clamp the estimate to
  // the last populated bucket.
  return bucket_estimate(last_nonzero);
}

HistogramData& HistogramData::operator+=(const HistogramData& other) {
  for (int k = 0; k < kNumBuckets; ++k)
    buckets[static_cast<std::size_t>(k)] += other.buckets[static_cast<std::size_t>(k)];
  count += other.count;
  sum_seconds += other.sum_seconds;
  return *this;
}

void MetricsSnapshot::add_counter(const std::string& name, const Labels& labels, double value) {
  for (MetricPoint& p : points) {
    if (!p.same_series(name, labels)) continue;
    p.value += value;
    return;
  }
  MetricPoint p;
  p.name = name;
  p.labels = labels;
  p.value = value;
  points.push_back(std::move(p));
}

void MetricsSnapshot::add_histogram(const std::string& name, const Labels& labels,
                                    const HistogramData& data) {
  for (MetricPoint& p : points) {
    if (!p.same_series(name, labels)) continue;
    p.histogram += data;
    return;
  }
  MetricPoint p;
  p.name = name;
  p.labels = labels;
  p.is_histogram = true;
  p.histogram = data;
  points.push_back(std::move(p));
}

double MetricsSnapshot::quantile(const std::string& name, double q, const Labels& labels) const {
  const MetricPoint* p = find(name, labels);
  if (p != nullptr && p->is_histogram) return p->histogram.quantile(q);
  if (labels.empty()) return histogram_total(name).quantile(q);
  return 0.0;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const MetricPoint& p : other.points) {
    if (p.is_histogram)
      add_histogram(p.name, p.labels, p.histogram);
    else
      add_counter(p.name, p.labels, p.value);
  }
}

const MetricPoint* MetricsSnapshot::find(const std::string& name, const Labels& labels) const {
  for (const MetricPoint& p : points)
    if (p.same_series(name, labels)) return &p;
  return nullptr;
}

double MetricsSnapshot::counter_total(const std::string& name) const {
  double total = 0;
  for (const MetricPoint& p : points)
    if (!p.is_histogram && p.name == name) total += p.value;
  return total;
}

HistogramData MetricsSnapshot::histogram_total(const std::string& name) const {
  HistogramData total;
  for (const MetricPoint& p : points)
    if (p.is_histogram && p.name == name) total += p.histogram;
  return total;
}

namespace detail {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace detail

Counter::Counter(int num_shards)
    : num_shards_(std::max(1, num_shards)),
      shards_(std::make_unique<Shard[]>(static_cast<std::size_t>(num_shards_))) {}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (int s = 0; s < num_shards_; ++s)
    total += shards_[static_cast<std::size_t>(s)].v.load(std::memory_order_acquire);
  return total;
}

Histogram::Histogram(int num_shards)
    : num_shards_(std::max(1, num_shards)),
      shards_(std::make_unique<Shard[]>(static_cast<std::size_t>(num_shards_))) {}

HistogramData Histogram::snapshot() const {
  HistogramData data;
  for (int s = 0; s < num_shards_; ++s) {
    const Shard& shard = shards_[static_cast<std::size_t>(s)];
    for (int k = 0; k < kNumBuckets; ++k)
      data.buckets[static_cast<std::size_t>(k)] +=
          shard.buckets[static_cast<std::size_t>(k)].load(std::memory_order_acquire);
    data.count += shard.count.load(std::memory_order_acquire);
    data.sum_seconds +=
        static_cast<double>(shard.sum_ns.load(std::memory_order_acquire)) * 1e-9;
  }
  return data;
}

namespace {
int auto_shards(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 2u, 16u));
}
}  // namespace

MetricsRegistry::MetricsRegistry(int num_shards) : num_shards_(auto_shards(num_shards)) {}

Counter& MetricsRegistry::counter(const std::string& name, const Labels& labels) {
  util::MutexLock lock(mutex_);
  for (Entry& e : entries_)
    if (e.counter && e.name == name && e.labels == labels) return *e.counter;
  Entry e;
  e.name = name;
  e.labels = labels;
  e.counter = std::make_unique<Counter>(num_shards_);
  entries_.push_back(std::move(e));
  return *entries_.back().counter;
}

Histogram& MetricsRegistry::histogram(const std::string& name, const Labels& labels) {
  util::MutexLock lock(mutex_);
  for (Entry& e : entries_)
    if (e.histogram && e.name == name && e.labels == labels) return *e.histogram;
  Entry e;
  e.name = name;
  e.labels = labels;
  e.histogram = std::make_unique<Histogram>(num_shards_);
  entries_.push_back(std::move(e));
  return *entries_.back().histogram;
}

void MetricsRegistry::scrape(MetricsSnapshot& out) const {
  util::MutexLock lock(mutex_);
  for (const Entry& e : entries_) {
    if (e.counter)
      out.add_counter(e.name, e.labels, static_cast<double>(e.counter->value()));
    else
      out.add_histogram(e.name, e.labels, e.histogram->snapshot());
  }
}

template <typename Metric>
MetricFamily<Metric>::MetricFamily(MetricsRegistry& registry, std::string name, Labels base_labels)
    : registry_(registry), name_(std::move(name)), base_labels_(std::move(base_labels)) {}

template <typename Metric>
MetricFamily<Metric>::~MetricFamily() {
  Node* node = head_.load(std::memory_order_acquire);
  while (node) {
    Node* next = node->next;
    delete node;
    node = next;
  }
}

template <typename Metric>
Metric& MetricFamily<Metric>::with(int id) {
  for (Node* node = head_.load(std::memory_order_acquire); node; node = node->next)
    if (node->id == id) return *node->metric;
  util::MutexLock lock(grow_mutex_);
  for (Node* node = head_.load(std::memory_order_relaxed); node; node = node->next)
    if (node->id == id) return *node->metric;
  Labels labels = base_labels_;
  labels.emplace_back("tenant", std::to_string(id));
  Metric* metric;
  if constexpr (std::is_same_v<Metric, Counter>)
    metric = &registry_.counter(name_, labels);
  else
    metric = &registry_.histogram(name_, labels);
  Node* node = new Node{id, metric, head_.load(std::memory_order_relaxed)};
  head_.store(node, std::memory_order_release);
  return *node->metric;
}

template <typename Metric>
void MetricFamily<Metric>::for_each(const std::function<void(int, const Metric&)>& fn) const {
  // The list is push-front, so walk it twice to visit in first-seen order.
  std::vector<const Node*> nodes;
  for (const Node* node = head_.load(std::memory_order_acquire); node; node = node->next)
    nodes.push_back(node);
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) fn((*it)->id, *(*it)->metric);
}

template class MetricFamily<Counter>;
template class MetricFamily<Histogram>;

}  // namespace distgnn::obs
