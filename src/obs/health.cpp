#include "obs/health.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>

namespace distgnn::obs {

namespace {

/// Requests in `h` that finished after `deadline`: the histogram's count
/// minus every bucket whose upper bound sits at or below the deadline. The
/// bucket straddling the deadline counts as bad — conservative, and exact
/// whenever the deadline sits on the log2 grid (the tests arrange that).
std::uint64_t count_over_deadline(const HistogramData& h, double deadline) {
  std::uint64_t good = 0;
  for (int k = 0; k < kNumBuckets; ++k) {
    if (bucket_upper_seconds(k) > deadline * (1.0 + 1e-9)) break;
    good += h.buckets[static_cast<std::size_t>(k)];
  }
  return h.count >= good ? h.count - good : 0;
}

/// Budget-consumption multiple: (bad fraction) / (error budget). 0 when the
/// window saw no traffic.
double burn_rate(const HistogramData& h, const HealthSlo& slo) {
  if (h.count == 0) return 0;
  const double bad = static_cast<double>(count_over_deadline(h, slo.deadline_seconds));
  const double budget = std::max(1e-9, 1.0 - slo.target);
  return (bad / static_cast<double>(h.count)) / budget;
}

}  // namespace

double SteadyHealthClock::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* health_rule_name(HealthRule rule) {
  switch (rule) {
    case HealthRule::kBurnRate: return "burn_rate";
    case HealthRule::kP99Drift: return "p99_drift";
    case HealthRule::kShedAnomaly: return "shed_anomaly";
    case HealthRule::kQueueSaturation: return "queue_saturation";
    case HealthRule::kEpochLag: return "epoch_lag";
    case HealthRule::kStall: return "stall";
    case HealthRule::kBarrierStuck: return "barrier_stuck";
  }
  return "unknown";
}

const char* severity_name(Severity severity) {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarn: return "warn";
    case Severity::kCritical: return "critical";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(HealthConfig config, std::shared_ptr<HealthClock> clock)
    : config_(config),
      clock_(clock ? std::move(clock) : std::make_shared<SteadyHealthClock>()),
      probe_store_(TimeSeriesStore::Config{config.ring_capacity, 2, ""}) {}

HealthMonitor::~HealthMonitor() { stop(); }

void HealthMonitor::add_source(std::string name, const ScrapeSource& source) {
  util::MutexLock lock(mutex_);
  auto state = std::make_unique<SourceState>();
  state->name = std::move(name);
  state->source = &source;
  TimeSeriesStore::Config cfg;
  cfg.value_capacity = config_.ring_capacity;
  cfg.histogram_capacity = config_.histogram_ring_capacity;
  state->store = TimeSeriesStore(std::move(cfg));
  sources_.push_back(std::move(state));
}

void HealthMonitor::set_slo(int tenant, double deadline_seconds, double target) {
  util::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < slos_.size(); ++i) {
    if (slos_[i].tenant == tenant) {
      slos_[i].deadline_seconds = deadline_seconds;
      slos_[i].target = target;
      return;
    }
  }
  slos_.push_back(HealthSlo{tenant, deadline_seconds, target});
  slo_labels_.push_back(std::to_string(tenant));
}

void HealthMonitor::add_queue_probe(std::string name, std::function<std::size_t()> depth,
                                    std::size_t capacity) {
  util::MutexLock lock(mutex_);
  QueueProbe probe;
  probe.labels = Labels{{"queue", name}};
  probe.name = std::move(name);
  probe.depth = std::move(depth);
  probe.capacity = capacity;
  queue_probes_.push_back(std::move(probe));
}

void HealthMonitor::add_barrier_probe(std::string name, std::function<bool()> closed) {
  util::MutexLock lock(mutex_);
  BarrierProbe probe;
  probe.name = std::move(name);
  probe.closed = std::move(closed);
  barrier_probes_.push_back(std::move(probe));
}

void HealthMonitor::add_epoch_probe(std::string name, std::function<std::uint64_t()> served,
                                    std::function<std::uint64_t()> sealed) {
  util::MutexLock lock(mutex_);
  EpochProbe probe;
  probe.labels = Labels{{"probe", name}};
  probe.name = std::move(name);
  probe.served = std::move(served);
  probe.sealed = std::move(sealed);
  epoch_probes_.push_back(std::move(probe));
}

void HealthMonitor::on_event(std::function<void(const HealthEvent&)> callback) {
  util::MutexLock lock(mutex_);
  callbacks_.push_back(std::move(callback));
}

void HealthMonitor::tick() {
  std::vector<HealthEvent> emitted;
  std::vector<std::function<void(const HealthEvent&)>> callbacks;
  {
    util::MutexLock lock(mutex_);
    const double now = clock_->now_seconds();
    ++ticks_;
    for (auto& src : sources_) {
      scratch_.points.clear();  // keeps capacity — the buffer is reused
      src->source->scrape(scratch_);
      src->store.ingest(now, scratch_);
    }
    for (QueueProbe& probe : queue_probes_) {
      probe.last_depth = static_cast<double>(probe.depth());
      probe_store_.ingest_gauge(now, "distgnn_health_queue_depth", probe.labels,
                                probe.last_depth);
    }
    evaluate_locked(now, emitted);
    for (const HealthEvent& event : emitted) {
      ++events_total_[static_cast<std::size_t>(event.rule)];
      history_.push_back(event);
      while (history_.size() > config_.history_capacity) history_.pop_front();
    }
    if (!emitted.empty()) callbacks = callbacks_;
  }
  // Callbacks run outside the lock: a callback may query the monitor (or, in
  // the autoscaler's case, trigger work that ends up scraped by it).
  for (const auto& callback : callbacks)
    for (const HealthEvent& event : emitted) callback(event);
}

void HealthMonitor::evaluate_locked(double now, std::vector<HealthEvent>& emitted) {
  for (auto& src_ptr : sources_) {
    SourceState& src = *src_ptr;
    const TimeSeriesStore& store = src.store;

    // Burn rate, per registered SLO tenant: SRE multiwindow — both the fast
    // and the slow window must overspend the budget.
    for (std::size_t i = 0; i < slos_.size(); ++i) {
      const HealthSlo& slo = slos_[i];
      if (slo.deadline_seconds <= 0) continue;
      const HistogramData fast = store.fold_histogram_delta(
          "_request_seconds", "tenant", slo_labels_[i], now, config_.burn_fast_window_seconds);
      const HistogramData slow = store.fold_histogram_delta(
          "_request_seconds", "tenant", slo_labels_[i], now, config_.burn_slow_window_seconds);
      const double fast_burn = burn_rate(fast, slo);
      const double slow_burn = burn_rate(slow, slo);
      const bool condition = fast.count >= config_.burn_min_requests &&
                             fast_burn > config_.burn_threshold &&
                             slow_burn > config_.burn_threshold;
      update_alert_locked(HealthRule::kBurnRate, src.name, slo.tenant, condition,
                          Severity::kCritical, fast_burn, config_.burn_threshold, now,
                          emitted);
    }

    // p99 drift vs the trailing baseline (the baseline window contains the
    // recent one, which only dampens the ratio — a real regression still
    // clears the factor).
    {
      const HistogramData recent = store.fold_histogram_delta("_request_seconds", "", "", now,
                                                              config_.drift_window_seconds);
      const HistogramData baseline = store.fold_histogram_delta(
          "_request_seconds", "", "", now, config_.drift_baseline_seconds);
      const double recent_p99 = recent.quantile(0.99);
      const double baseline_p99 = baseline.quantile(0.99);
      const bool condition = recent.count >= config_.drift_min_requests &&
                             baseline.count > recent.count && baseline_p99 > 0 &&
                             recent_p99 > config_.drift_factor * baseline_p99;
      update_alert_locked(HealthRule::kP99Drift, src.name, -1, condition, Severity::kWarn,
                          baseline_p99 > 0 ? recent_p99 / baseline_p99 : 0,
                          config_.drift_factor, now, emitted);
    }

    // Shed anomaly: windowed shed fraction vs max(floor, factor × baseline).
    {
      const double recent_shed =
          store.fold_counter_delta("_shed_total", "", "", now, config_.shed_window_seconds);
      const double recent_sub = store.fold_counter_delta("_submitted_total", "", "", now,
                                                         config_.shed_window_seconds);
      const double base_shed =
          store.fold_counter_delta("_shed_total", "", "", now, config_.shed_baseline_seconds);
      const double base_sub = store.fold_counter_delta("_submitted_total", "", "", now,
                                                       config_.shed_baseline_seconds);
      const double recent_frac = recent_sub > 0 ? recent_shed / recent_sub : 0;
      const double base_frac = base_sub > 0 ? base_shed / base_sub : 0;
      const double threshold =
          std::max(config_.shed_fraction_floor, config_.shed_factor * base_frac);
      const bool condition =
          recent_sub >= static_cast<double>(config_.shed_min_requests) &&
          recent_frac > threshold;
      update_alert_locked(HealthRule::kShedAnomaly, src.name, -1, condition, Severity::kWarn,
                          recent_frac, threshold, now, emitted);
    }

    // Stall watchdog: completed counters stopped advancing while work is in
    // flight. Every layer's (submitted, completed, shed) triple balances to
    // its own in-flight count, so the fold across layers is >= 0 and hits 0
    // exactly when the tower is drained.
    {
      const double completed = store.fold_counter_latest("_completed_total", "", "");
      const double submitted = store.fold_counter_latest("_submitted_total", "", "");
      const double shed = store.fold_counter_latest("_shed_total", "", "");
      if (!src.primed || completed > src.last_completed + 0.5) {
        src.last_completed = completed;
        src.last_advance_t = now;
        src.primed = true;
      }
      const double inflight = submitted - completed - shed;
      const double stalled_for = now - src.last_advance_t;
      const bool condition =
          inflight > 0.5 && stalled_for >= config_.stall_timeout_seconds;
      update_alert_locked(HealthRule::kStall, src.name, -1, condition, Severity::kCritical,
                          stalled_for, config_.stall_timeout_seconds, now, emitted);
    }
  }

  for (QueueProbe& probe : queue_probes_) {
    const double fraction =
        probe.capacity > 0 ? probe.last_depth / static_cast<double>(probe.capacity) : 0;
    update_alert_locked(HealthRule::kQueueSaturation, probe.name, -1,
                        fraction >= config_.queue_saturation_fraction, Severity::kWarn,
                        fraction, config_.queue_saturation_fraction, now, emitted);
  }

  for (BarrierProbe& probe : barrier_probes_) {
    const bool closed = probe.closed();
    if (closed) {
      if (probe.closed_since < 0) probe.closed_since = now;
    } else {
      probe.closed_since = -1;
    }
    const double closed_for = probe.closed_since >= 0 ? now - probe.closed_since : 0;
    update_alert_locked(HealthRule::kBarrierStuck, probe.name, -1,
                        closed_for >= config_.barrier_timeout_seconds && closed,
                        Severity::kCritical, closed_for, config_.barrier_timeout_seconds, now,
                        emitted);
  }

  for (EpochProbe& probe : epoch_probes_) {
    const std::uint64_t served = probe.served();
    const std::uint64_t sealed = probe.sealed();
    const double lag =
        sealed > served ? static_cast<double>(sealed - served) : 0;
    probe_store_.ingest_gauge(now, "distgnn_health_epoch_lag", probe.labels, lag);
    if (lag > static_cast<double>(config_.max_epoch_lag)) {
      if (probe.lag_since < 0) probe.lag_since = now;
    } else {
      probe.lag_since = -1;
    }
    const bool condition =
        probe.lag_since >= 0 && now - probe.lag_since >= config_.epoch_lag_grace_seconds;
    update_alert_locked(HealthRule::kEpochLag, probe.name, -1, condition, Severity::kWarn, lag,
                        static_cast<double>(config_.max_epoch_lag), now, emitted);
  }
}

void HealthMonitor::update_alert_locked(HealthRule rule, const std::string& subject, int tenant,
                                        bool condition, Severity severity, double value,
                                        double threshold, double now,
                                        std::vector<HealthEvent>& emitted) {
  AlertState* state = nullptr;
  for (AlertState& s : alerts_) {
    if (s.rule == rule && s.tenant == tenant && s.subject == subject) {
      state = &s;
      break;
    }
  }
  if (state == nullptr) {
    AlertState s;
    s.rule = rule;
    s.subject = subject;
    s.tenant = tenant;
    alerts_.push_back(std::move(s));
    state = &alerts_.back();
  }

  if (condition && !state->active) {
    state->active = true;
    HealthEvent event;
    event.rule = rule;
    event.severity = severity;
    event.firing = true;
    event.subject = subject;
    event.tenant = tenant;
    event.t = now;
    event.value = value;
    event.threshold = threshold;
    char buf[160];
    if (tenant >= 0)
      std::snprintf(buf, sizeof(buf), "%s firing on %s tenant %d: %.4g vs threshold %.4g",
                    health_rule_name(rule), subject.c_str(), tenant, value, threshold);
    else
      std::snprintf(buf, sizeof(buf), "%s firing on %s: %.4g vs threshold %.4g",
                    health_rule_name(rule), subject.c_str(), value, threshold);
    event.detail = buf;
    state->last = event;
    emitted.push_back(event);
  } else if (condition) {
    state->last.value = value;  // keep active() reporting the latest reading
    state->last.t = now;
  } else if (!condition && state->active) {
    state->active = false;
    HealthEvent event = state->last;
    event.firing = false;
    event.t = now;
    event.value = value;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s resolved on %s: %.4g vs threshold %.4g",
                  health_rule_name(rule), subject.c_str(), value, threshold);
    event.detail = buf;
    emitted.push_back(event);
  }
}

std::uint64_t HealthMonitor::ticks() const {
  util::MutexLock lock(mutex_);
  return ticks_;
}

std::vector<HealthEvent> HealthMonitor::active() const {
  util::MutexLock lock(mutex_);
  std::vector<HealthEvent> out;
  for (const AlertState& s : alerts_)
    if (s.active) out.push_back(s.last);
  return out;
}

std::vector<HealthEvent> HealthMonitor::history() const {
  util::MutexLock lock(mutex_);
  return std::vector<HealthEvent>(history_.begin(), history_.end());
}

std::uint64_t HealthMonitor::series_allocations() const {
  util::MutexLock lock(mutex_);
  std::uint64_t total = probe_store_.allocations();
  for (const auto& src : sources_) total += src->store.allocations();
  return total;
}

std::size_t HealthMonitor::num_series() const {
  util::MutexLock lock(mutex_);
  std::size_t total = probe_store_.num_series();
  for (const auto& src : sources_) total += src->store.num_series();
  return total;
}

std::string HealthMonitor::summary_line() const {
  util::MutexLock lock(mutex_);
  std::ostringstream out;
  std::size_t firing = 0;
  for (const AlertState& s : alerts_)
    if (s.active) ++firing;
  std::size_t series = probe_store_.num_series();
  for (const auto& src : sources_) series += src->store.num_series();
  out << "health: ticks=" << ticks_ << " series=" << series << " firing=" << firing;
  if (firing > 0) {
    out << " [";
    bool first = true;
    for (const AlertState& s : alerts_) {
      if (!s.active) continue;
      if (!first) out << " ";
      first = false;
      out << health_rule_name(s.rule) << ":" << s.subject;
      if (s.tenant >= 0) out << ":t" << s.tenant;
    }
    out << "]";
  }
  return out.str();
}

void HealthMonitor::scrape(MetricsSnapshot& out) const {
  util::MutexLock lock(mutex_);
  out.add_counter("distgnn_health_ticks_total", {}, static_cast<double>(ticks_));
  std::size_t series = probe_store_.num_series();
  std::uint64_t allocations = probe_store_.allocations();
  for (const auto& src : sources_) {
    series += src->store.num_series();
    allocations += src->store.allocations();
  }
  out.add_counter("distgnn_health_series", {}, static_cast<double>(series));
  out.add_counter("distgnn_health_series_allocations_total", {},
                  static_cast<double>(allocations));
  for (int r = 0; r < kNumHealthRules; ++r) {
    const auto rule = static_cast<HealthRule>(r);
    std::size_t active = 0;
    for (const AlertState& s : alerts_)
      if (s.active && s.rule == rule) ++active;
    const Labels labels{{"rule", health_rule_name(rule)}};
    out.add_counter("distgnn_health_active", labels, static_cast<double>(active));
    out.add_counter("distgnn_health_events_total", labels,
                    static_cast<double>(events_total_[static_cast<std::size_t>(r)]));
  }
  for (const QueueProbe& probe : queue_probes_)
    out.add_counter("distgnn_health_queue_depth", probe.labels, probe.last_depth);
}

void HealthMonitor::start() {
  util::MutexLock lock(run_mutex_);
  if (running_) return;
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void HealthMonitor::stop() {
  {
    util::MutexLock lock(run_mutex_);
    if (!running_) {
      if (thread_.joinable()) thread_.join();
      return;
    }
    running_ = false;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void HealthMonitor::run_loop() {
  util::MutexLock lock(run_mutex_);
  while (running_) {
    lock.unlock();
    tick();
    lock.lock();
    // Timed sleep with stop responsiveness: a stop() between ticks notifies
    // cv_ and flips running_, so re-check after every wakeup (spurious or
    // not) instead of trusting a single wait_for.
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config_.scrape_period_seconds));
    while (running_) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
  }
}

}  // namespace distgnn::obs
