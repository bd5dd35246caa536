#include "obs/timeseries.hpp"

#include <algorithm>
#include <limits>

namespace distgnn::obs {

namespace {

constexpr std::size_t kNoHint = std::numeric_limits<std::size_t>::max();

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool has_label(const Labels& labels, std::string_view key, std::string_view value) {
  for (const auto& [k, v] : labels)
    if (k == key && v == value) return true;
  return false;
}

}  // namespace

// ---------------------------------------------------------------- ValueSeries

ValueSeries::ValueSeries(std::size_t capacity) : ring_(std::max<std::size_t>(capacity, 2)) {}

void ValueSeries::push(double t, double value) {
  ring_[head_] = TsSample{t, value};
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
}

const TsSample& ValueSeries::at(std::size_t logical) const {
  // head_ points one past the newest; oldest lives size_ slots behind head_.
  return ring_[(head_ + ring_.size() - size_ + logical) % ring_.size()];
}

const TsSample& ValueSeries::newest() const { return at(size_ - 1); }
const TsSample& ValueSeries::oldest() const { return at(0); }

const TsSample* ValueSeries::at_or_before(double cutoff) const {
  if (size_ == 0) return nullptr;
  const TsSample* best = nullptr;
  for (std::size_t i = 0; i < size_; ++i) {
    const TsSample& s = at(i);
    if (s.t <= cutoff) best = &s;  // samples are time-ordered; keep the newest
  }
  return best;
}

double ValueSeries::delta(double now, double window) const {
  if (size_ < 2) return 0;
  const TsSample* base = at_or_before(now - window);
  if (base == nullptr) base = &oldest();
  if (base == &newest()) return 0;
  return std::max(0.0, newest().value - base->value);
}

// ------------------------------------------------------------ HistogramSeries

HistogramSeries::HistogramSeries(std::size_t capacity)
    : ring_(std::max<std::size_t>(capacity, 2)) {}

void HistogramSeries::push(double t, const HistogramData& cumulative) {
  ring_[head_].t = t;
  ring_[head_].h = cumulative;
  head_ = (head_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
}

const HistogramSeries::Snap& HistogramSeries::at(std::size_t logical) const {
  return ring_[(head_ + ring_.size() - size_ + logical) % ring_.size()];
}

HistogramData HistogramSeries::window_delta(double now, double window) const {
  HistogramData out;
  if (size_ < 2) return out;
  const Snap* base = nullptr;
  const double cutoff = now - window;
  for (std::size_t i = 0; i < size_; ++i) {
    const Snap& s = at(i);
    if (s.t <= cutoff) base = &s;
  }
  if (base == nullptr) base = &at(0);
  const Snap& top = at(size_ - 1);
  if (base == &top) return out;
  for (int k = 0; k < kNumBuckets; ++k) {
    const auto i = static_cast<std::size_t>(k);
    out.buckets[i] = top.h.buckets[i] >= base->h.buckets[i]
                         ? top.h.buckets[i] - base->h.buckets[i]
                         : 0;  // saturate across counter resets
    out.count += out.buckets[i];
  }
  out.sum_seconds = std::max(0.0, top.h.sum_seconds - base->h.sum_seconds);
  return out;
}

// ------------------------------------------------------------ TimeSeriesStore

TimeSeriesStore::TimeSeriesStore() = default;
TimeSeriesStore::TimeSeriesStore(Config cfg) : cfg_(std::move(cfg)) {}

TimeSeriesStore::Entry* TimeSeriesStore::match(const std::string& name, const Labels& labels,
                                               std::size_t hint_slot) {
  if (hint_slot < hint_.size() && hint_[hint_slot] != kNoHint) {
    Entry& e = entries_[hint_[hint_slot]];
    if (e.name == name && e.labels == labels) return &e;
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == name && entries_[i].labels == labels) {
      if (hint_slot < hint_.size()) hint_[hint_slot] = i;
      return &entries_[i];
    }
  }
  return nullptr;
}

TimeSeriesStore::Entry& TimeSeriesStore::create(const std::string& name, const Labels& labels,
                                                bool is_histogram) {
  Entry e;
  e.name = name;
  e.labels = labels;
  if (is_histogram)
    e.hist = std::make_unique<HistogramSeries>(cfg_.histogram_capacity);
  else
    e.values = std::make_unique<ValueSeries>(cfg_.value_capacity);
  entries_.push_back(std::move(e));
  ++allocations_;
  return entries_.back();
}

void TimeSeriesStore::ingest(double t, const MetricsSnapshot& snapshot) {
  if (hint_.size() < snapshot.points.size()) hint_.resize(snapshot.points.size(), kNoHint);
  for (std::size_t i = 0; i < snapshot.points.size(); ++i) {
    const MetricPoint& p = snapshot.points[i];
    if (p.is_histogram && !cfg_.histogram_filter.empty() &&
        !ends_with(p.name, cfg_.histogram_filter)) {
      if (i < hint_.size()) hint_[i] = kNoHint;
      continue;
    }
    Entry* e = match(p.name, p.labels, i);
    if (e == nullptr) {
      e = &create(p.name, p.labels, p.is_histogram);
      if (i < hint_.size()) hint_[i] = entries_.size() - 1;
    }
    if (p.is_histogram) {
      if (e->hist) e->hist->push(t, p.histogram);
    } else {
      if (e->values) e->values->push(t, p.value);
    }
  }
}

void TimeSeriesStore::ingest_gauge(double t, const std::string& name, const Labels& labels,
                                   double value) {
  Entry* e = match(name, labels, kNoHint);
  if (e == nullptr) e = &create(name, labels, /*is_histogram=*/false);
  if (e->values) e->values->push(t, value);
}

bool TimeSeriesStore::entry_matches(const Entry& e, std::string_view suffix,
                                    std::string_view label_key,
                                    std::string_view label_value) const {
  if (!ends_with(e.name, suffix)) return false;
  if (!label_key.empty() && !has_label(e.labels, label_key, label_value)) return false;
  return true;
}

double TimeSeriesStore::fold_counter_delta(std::string_view suffix, std::string_view label_key,
                                           std::string_view label_value, double now,
                                           double window) const {
  double total = 0;
  for (const Entry& e : entries_)
    if (e.values && entry_matches(e, suffix, label_key, label_value))
      total += e.values->delta(now, window);
  return total;
}

double TimeSeriesStore::fold_counter_latest(std::string_view suffix, std::string_view label_key,
                                            std::string_view label_value) const {
  double total = 0;
  for (const Entry& e : entries_)
    if (e.values && !e.values->empty() && entry_matches(e, suffix, label_key, label_value))
      total += e.values->newest().value;
  return total;
}

HistogramData TimeSeriesStore::fold_histogram_delta(std::string_view suffix,
                                                    std::string_view label_key,
                                                    std::string_view label_value, double now,
                                                    double window) const {
  HistogramData total;
  for (const Entry& e : entries_)
    if (e.hist && entry_matches(e, suffix, label_key, label_value))
      total += e.hist->window_delta(now, window);
  return total;
}

}  // namespace distgnn::obs
