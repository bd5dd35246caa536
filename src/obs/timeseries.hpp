// Fixed-capacity time series over scrape snapshots: the storage half of the
// health engine.
//
// A HealthMonitor scrapes the tower every few tens of milliseconds; under an
// MMPP regime a point-in-time scrape misleads (squared coefficient of
// variation > 1 — bursts hide between samples), so rules need *windows*:
// counter deltas/rates over a trailing window and histogram quantiles over
// the increments that landed inside it. This file provides exactly that,
// with the constraint that the per-tick sample path performs no heap
// allocation once a series exists: rings are preallocated at creation and
// overwrite their oldest slot, and ingest matches snapshot points to series
// through a positional hint (scrape order is stable) with a linear-search
// fallback. Series creation is the only allocating event and is counted, so
// tests can assert the steady state is allocation-free.
//
// Windowed reads subtract the newest retained sample at or before
// (now - window) from the newest sample. When every retained sample is
// newer than the cutoff — a young series, or a ring that already evicted
// the baseline — the oldest retained sample is the baseline, i.e. the
// window silently truncates to the observed span instead of inventing a
// zero baseline that would count pre-attach history as current traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace distgnn::obs {

/// One (time, value) observation. Times are seconds on whatever clock the
/// owner stamps with (the HealthMonitor's injected clock).
struct TsSample {
  double t = 0;
  double value = 0;
};

/// Ring of scalar samples (cumulative counter readings or gauge levels).
/// push() overwrites the oldest slot once full and never allocates.
class ValueSeries {
 public:
  explicit ValueSeries(std::size_t capacity);

  void push(double t, double value);

  bool empty() const { return size_ == 0; }
  const TsSample& newest() const;
  const TsSample& oldest() const;

  /// Newest sample with t <= cutoff, else nullptr (every retained sample is
  /// newer). nullptr when empty.
  const TsSample* at_or_before(double cutoff) const;

  /// Value increase over the trailing window (see file comment for baseline
  /// selection). Clamped at 0 so a counter reset reads as quiet, not as a
  /// huge negative burst. 0 with fewer than two samples.
  double delta(double now, double window) const;

 private:
  const TsSample& at(std::size_t logical) const;  // 0 = oldest

  std::vector<TsSample> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
};

/// Ring of cumulative HistogramData snapshots. window_delta() recovers the
/// increments that landed inside the trailing window by bucket-wise
/// (saturating) subtraction of two snapshots.
class HistogramSeries {
 public:
  explicit HistogramSeries(std::size_t capacity);

  void push(double t, const HistogramData& cumulative);

  HistogramData window_delta(double now, double window) const;

 private:
  struct Snap {
    double t = 0;
    HistogramData h;
  };
  const Snap& at(std::size_t logical) const;  // 0 = oldest

  std::vector<Snap> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// Named collection of series fed from MetricsSnapshots. One store per
/// scraped source keeps fold queries scoped to that source's tower.
class TimeSeriesStore {
 public:
  struct Config {
    std::size_t value_capacity = 256;
    std::size_t histogram_capacity = 128;
    /// Histogram points are ingested only when their name ends with this
    /// suffix (empty = ingest all). Histogram snapshots are ~0.4 KB each, so
    /// an unfiltered store over an R×P grid's per-stage per-tenant series
    /// costs tens of MB of rings; the health rules only read
    /// *_request_seconds.
    std::string histogram_filter = "_request_seconds";
  };

  TimeSeriesStore();
  explicit TimeSeriesStore(Config cfg);

  /// Pushes every point of `snapshot` into its series, creating series on
  /// first sight. Steady state (same layout as the previous scrape) performs
  /// no allocation.
  void ingest(double t, const MetricsSnapshot& snapshot);

  /// Pushes a single scalar observation (probe gauges: queue depth, epoch
  /// lag). Allocation-free once the series exists.
  void ingest_gauge(double t, const std::string& name, const Labels& labels, double value);

  /// Number of series creations so far. Flat across ticks == the sample
  /// path allocated nothing (the assertion health_test pins).
  std::uint64_t allocations() const { return allocations_; }
  std::size_t num_series() const { return entries_.size(); }

  // -- Folds over every series whose name ends with `suffix` and (when
  // label_key is non-empty) carries label_key="label_value". None allocate.

  double fold_counter_delta(std::string_view suffix, std::string_view label_key,
                            std::string_view label_value, double now, double window) const;
  /// Sum of the newest readings (a point-in-time total, e.g. completed so
  /// far).
  double fold_counter_latest(std::string_view suffix, std::string_view label_key,
                             std::string_view label_value) const;
  HistogramData fold_histogram_delta(std::string_view suffix, std::string_view label_key,
                                     std::string_view label_value, double now,
                                     double window) const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    std::unique_ptr<ValueSeries> values;     // exactly one of values /
    std::unique_ptr<HistogramSeries> hist;   // hist is set
  };

  Entry* match(const std::string& name, const Labels& labels, std::size_t hint_slot);
  Entry& create(const std::string& name, const Labels& labels, bool is_histogram);
  bool entry_matches(const Entry& e, std::string_view suffix, std::string_view label_key,
                     std::string_view label_value) const;

  Config cfg_;
  std::vector<Entry> entries_;
  /// Positional hint: snapshot point index -> entry index from the previous
  /// ingest (scrape enumeration order is stable, so this almost always
  /// hits). npos marks filtered-out points.
  std::vector<std::size_t> hint_;
  std::uint64_t allocations_ = 0;
};

}  // namespace distgnn::obs
