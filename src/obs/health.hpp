// Health & SLO engine: the sensor half of the elastic-autoscaling loop.
//
// A HealthMonitor owns one TimeSeriesStore per registered ScrapeSource and a
// background thread that ticks every scrape period: scrape each source,
// ingest the snapshot into its rings, then evaluate rules over the windows:
//
//   burn-rate    per-tenant SLO burn à la SRE multiwindow alerting: the
//                fraction of requests over the tenant's deadline, divided by
//                the error budget (1 - slo_target), over a fast AND a slow
//                window — both must exceed the threshold, so a blip can't
//                fire and a real regression can't hide.
//   p99 drift    windowed p99 vs the trailing-baseline p99 (factor bound).
//   shed anomaly windowed shed fraction vs max(absolute floor, factor ×
//                trailing-baseline shed fraction).
//   saturation   a registered queue-depth probe at >= fraction of capacity.
//   epoch lag    sealed-epoch head (DeltaLog) minus served epoch above a
//                bound for longer than a grace period.
//   stall        completed counters stop advancing while work is in flight
//                (submitted - completed - shed > 0) past a timeout.
//   barrier      a publish barrier reported closed continuously past a bound.
//
// Rule transitions emit structured HealthEvents (firing=true on cross,
// firing=false on resolve) into a bounded history, to registered callbacks
// (the future autoscaler's hook), and into the monitor's own scrape() as
// distgnn_health_* series. Time comes from an injected HealthClock, so tests
// drive every rule deterministically through tick() + ManualClock — no
// sleeps, no background thread.
//
// The per-tick sample path does not allocate once series exist (asserted via
// TimeSeriesStore::allocations()); scraping a source into the reusable
// snapshot buffer is the one place strings are built, and event emission —
// rare by construction — is the one place the monitor itself allocates.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/scrape.hpp"
#include "obs/timeseries.hpp"
#include "util/sync.hpp"

namespace distgnn::obs {

/// Time source for the monitor. Virtualized so rule tests inject a
/// ManualClock and drive tick() by hand.
class HealthClock {
 public:
  virtual ~HealthClock() = default;
  virtual double now_seconds() const = 0;
};

/// std::chrono::steady_clock seconds — the production clock.
class SteadyHealthClock : public HealthClock {
 public:
  double now_seconds() const override;
};

/// Hand-advanced clock for deterministic tests.
class ManualClock : public HealthClock {
 public:
  explicit ManualClock(double t = 0) : t_(t) {}
  double now_seconds() const override { return t_; }
  void advance(double dt) { t_ += dt; }
  void set(double t) { t_ = t; }

 private:
  double t_;
};

enum class HealthRule : std::uint8_t {
  kBurnRate = 0,
  kP99Drift,
  kShedAnomaly,
  kQueueSaturation,
  kEpochLag,
  kStall,
  kBarrierStuck,
};
inline constexpr int kNumHealthRules = 7;

/// "burn_rate", "p99_drift", ... — the label value and JSON field.
const char* health_rule_name(HealthRule rule);

enum class Severity : std::uint8_t { kInfo = 0, kWarn, kCritical };
const char* severity_name(Severity severity);

/// One alert transition. firing=true when the rule condition became true,
/// firing=false when it resolved. `subject` is the source or probe name the
/// rule evaluated; tenant >= 0 only for tenant-scoped rules (burn rate).
struct HealthEvent {
  HealthRule rule = HealthRule::kBurnRate;
  Severity severity = Severity::kWarn;
  bool firing = true;
  std::string subject;
  int tenant = -1;
  double t = 0;
  double value = 0;      // the observed value at the transition
  double threshold = 0;  // the bound it crossed
  std::string detail;    // human-readable "value vs threshold" summary
};

struct HealthConfig {
  double scrape_period_seconds = 0.05;
  std::size_t ring_capacity = 256;
  std::size_t histogram_ring_capacity = 128;

  // Burn rate (per tenant with a registered SLO).
  double burn_fast_window_seconds = 1.0;
  double burn_slow_window_seconds = 6.0;
  double burn_threshold = 2.0;  // budget-consumption multiple
  std::uint64_t burn_min_requests = 16;

  // p99 drift.
  double drift_window_seconds = 1.0;
  double drift_baseline_seconds = 8.0;
  double drift_factor = 3.0;
  std::uint64_t drift_min_requests = 64;

  // Shed anomaly.
  double shed_window_seconds = 1.0;
  double shed_baseline_seconds = 8.0;
  double shed_fraction_floor = 0.05;
  double shed_factor = 3.0;
  std::uint64_t shed_min_requests = 16;

  // Queue saturation.
  double queue_saturation_fraction = 0.9;

  // Graph-epoch freshness.
  std::uint64_t max_epoch_lag = 2;
  double epoch_lag_grace_seconds = 0.5;

  // Stall watchdog.
  double stall_timeout_seconds = 1.0;
  double barrier_timeout_seconds = 0.5;

  std::size_t history_capacity = 256;
};

/// Per-tenant objective the burn-rate rule evaluates: requests slower than
/// `deadline_seconds` consume the (1 - target) error budget.
struct HealthSlo {
  int tenant = 0;
  double deadline_seconds = 0;
  double target = 0.999;
};

class HealthMonitor : public ScrapeSource {
 public:
  explicit HealthMonitor(HealthConfig config = {},
                         std::shared_ptr<HealthClock> clock = nullptr);
  ~HealthMonitor() override;

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Registers a scrape target. The source must outlive the monitor (or the
  /// caller must stop() before tearing it down). Not safe to call while the
  /// background thread runs.
  void add_source(std::string name, const ScrapeSource& source);

  /// Registers/overwrites the SLO for a tenant. deadline <= 0 disables.
  void set_slo(int tenant, double deadline_seconds, double target = 0.999);

  /// Queue-depth probe for the saturation rule (and for exposition as
  /// distgnn_health_queue_depth{queue=name}).
  void add_queue_probe(std::string name, std::function<std::size_t()> depth,
                       std::size_t capacity);
  /// Publish-barrier probe: `closed` returns true while the barrier is shut.
  void add_barrier_probe(std::string name, std::function<bool()> closed);
  /// Freshness probe: served graph epoch vs sealed delta-log head.
  void add_epoch_probe(std::string name, std::function<std::uint64_t()> served,
                       std::function<std::uint64_t()> sealed);

  /// Registers an alert-transition callback. Invoked outside the monitor
  /// lock (a callback may query the monitor), from whichever thread ticked.
  void on_event(std::function<void(const HealthEvent&)> callback);

  /// Starts/stops the background scrape thread (idempotent). Tests skip
  /// start() entirely and call tick() by hand.
  void start();
  void stop();

  /// One scrape + evaluate cycle at clock->now_seconds().
  void tick();

  std::uint64_t ticks() const;
  /// Currently-firing alerts (reconstructed from rule state, firing=true).
  std::vector<HealthEvent> active() const;
  /// The last history_capacity transitions, oldest first.
  std::vector<HealthEvent> history() const;
  /// Total series creations across all stores — flat once warmed up.
  std::uint64_t series_allocations() const;
  std::size_t num_series() const;
  /// One-line status for demo output: tick count, series count, firing
  /// alerts by rule/subject/tenant.
  std::string summary_line() const;

  /// ScrapeSource: distgnn_health_ticks_total, distgnn_health_active{rule=},
  /// distgnn_health_events_total{rule=}, distgnn_health_series, queue-depth
  /// gauges.
  void scrape(MetricsSnapshot& out) const override;

 private:
  struct SourceState {
    std::string name;
    const ScrapeSource* source = nullptr;
    TimeSeriesStore store;
    // Stall watchdog state.
    double last_completed = -1;
    double last_advance_t = 0;
    bool primed = false;
  };
  struct QueueProbe {
    std::string name;
    std::function<std::size_t()> depth;
    std::size_t capacity = 0;
    Labels labels;  // prebuilt {queue=name} so ticks don't allocate
    double last_depth = 0;
  };
  struct BarrierProbe {
    std::string name;
    std::function<bool()> closed;
    double closed_since = -1;  // < 0 = open
  };
  struct EpochProbe {
    std::string name;
    std::function<std::uint64_t()> served;
    std::function<std::uint64_t()> sealed;
    Labels labels;
    double lag_since = -1;  // < 0 = within bound
  };
  struct AlertState {
    HealthRule rule;
    std::string subject;
    int tenant = -1;
    bool active = false;
    HealthEvent last;  // the firing event, kept for active()
  };

  void evaluate_locked(double now, std::vector<HealthEvent>& emitted) REQUIRES(mutex_);
  void update_alert_locked(HealthRule rule, const std::string& subject, int tenant,
                           bool condition, Severity severity, double value, double threshold,
                           double now, std::vector<HealthEvent>& emitted) REQUIRES(mutex_);
  void run_loop();

  HealthConfig config_;
  std::shared_ptr<HealthClock> clock_;

  mutable util::Mutex mutex_;
  std::vector<std::unique_ptr<SourceState>> sources_ GUARDED_BY(mutex_);
  std::vector<HealthSlo> slos_ GUARDED_BY(mutex_);
  std::vector<std::string> slo_labels_ GUARDED_BY(mutex_);  // prebuilt tenant label values
  TimeSeriesStore probe_store_ GUARDED_BY(mutex_);
  std::vector<QueueProbe> queue_probes_ GUARDED_BY(mutex_);
  std::vector<BarrierProbe> barrier_probes_ GUARDED_BY(mutex_);
  std::vector<EpochProbe> epoch_probes_ GUARDED_BY(mutex_);
  std::vector<AlertState> alerts_ GUARDED_BY(mutex_);
  std::deque<HealthEvent> history_ GUARDED_BY(mutex_);
  std::vector<std::function<void(const HealthEvent&)>> callbacks_ GUARDED_BY(mutex_);
  MetricsSnapshot scratch_ GUARDED_BY(mutex_);  // reused scrape buffer
  std::uint64_t ticks_ GUARDED_BY(mutex_) = 0;
  std::array<std::uint64_t, kNumHealthRules> events_total_ GUARDED_BY(mutex_){};

  std::thread thread_;
  util::CondVar cv_;
  util::Mutex run_mutex_;
  bool running_ GUARDED_BY(run_mutex_) = false;
};

}  // namespace distgnn::obs
