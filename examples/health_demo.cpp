// Health & SLO engine demo / smoke: one HealthMonitor watching a full
// serving tower — a ModelRegistry fronting a ComposedTier (R replicas x P
// shards) — plus a DeltaPublisher's freshness probe, with every alert family
// driven on purpose:
//
//   1. An MMPP burst against a deliberately tight SLO deadline makes the
//      per-tenant burn rate overspend both SRE windows -> burn_rate fires;
//      the quiet period afterwards lets the fast window slide past the
//      burst -> burn_rate resolves.
//   2. A publish is wedged by holding an admission slot open across the
//      version barrier -> barrier_stuck fires; releasing the slot lets the
//      publish complete -> resolves.
//   3. Epochs are sealed into the DeltaLog without publishing -> epoch_lag
//      fires after the grace period; publishing the backlog resolves it.
//
// Alert transitions print as "health event:" lines the moment they happen
// (the registered callback), a "health summary:" one-liner lands after each
// phase, and the full structured state (active alerts + transition history)
// is written to --health-out as JSON. Exit code 0 iff every expected
// fire/resolve pair was observed — the CI observability smoke runs this
// binary and uploads the JSON artifact.
//
//   ./health_demo [--vertices=512] [--requests=1200] [--rate=3000]
//                 [--seed=1] [--shards=2] [--replicas=2]
//                 [--health-out=health.json]
//
// Unknown flags are rejected (util/options strict mode) so typos fail loudly.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/expose.hpp"
#include "obs/health.hpp"
#include "partition/libra.hpp"
#include "serve/composed_tier.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/tier_config.hpp"
#include "stream/delta_publisher.hpp"
#include "stream/graph_delta.hpp"
#include "util/options.hpp"
#include "util/sync.hpp"

using namespace distgnn;
using namespace distgnn::serve;

namespace {

void sleep_seconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Thread-safe tally of fire/resolve transitions per rule, fed by the
/// monitor callback (which runs on the monitor's scrape thread).
struct EventTally {
  util::Mutex mutex;
  int fired[obs::kNumHealthRules] GUARDED_BY(mutex) = {};
  int resolved[obs::kNumHealthRules] GUARDED_BY(mutex) = {};

  void record(const obs::HealthEvent& event) {
    util::MutexLock lock(mutex);
    auto& slot = event.firing ? fired : resolved;
    ++slot[static_cast<std::size_t>(event.rule)];
  }
  int count(obs::HealthRule rule, bool firing) {
    util::MutexLock lock(mutex);
    return (firing ? fired : resolved)[static_cast<std::size_t>(rule)];
  }
  bool saw_pair(obs::HealthRule rule) {
    return count(rule, true) > 0 && count(rule, false) > 0;
  }
};

int run_demo(const Options& opts) {
  const auto vertices = opts.get_int("vertices", 512);
  const auto requests = static_cast<std::size_t>(opts.get_int("requests", 1200));
  const double rate = opts.get_double("rate", 3000.0);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  const int shards = static_cast<int>(opts.get_int("shards", 2));
  const int replicas = static_cast<int>(opts.get_int("replicas", 2));
  const std::string health_out = opts.get("health-out", "health.json");

  // 1. The tower: registry -> composed tier (R x P grid). The SLO deadline
  //    is deliberately far below what a burst can meet, and deadline
  //    shedding is off so late requests complete (and violate) rather than
  //    shed — that is what the burn-rate rule measures.
  LearnableSbmParams params;
  params.num_vertices = vertices;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = static_cast<unsigned>(seed);
  const Dataset dataset = make_learnable_sbm(params);
  const EdgePartition partition =
      partition_libra(dataset.graph.coo(), static_cast<part_t>(shards));

  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;
  const auto snapshot = ModelSnapshot::random(spec, seed, /*version=*/1);

  ComposedConfig composed_cfg;
  composed_cfg.replicas = replicas;
  composed_cfg.shard.max_batch = 8;
  composed_cfg.shard.fanouts = {6, 6};
  composed_cfg.admission.shed_deadlines = false;
  TenantSlo slo;
  slo.name = "alpha";
  slo.deadline_seconds = 1e-4;  // 100µs: a queued burst blows straight past it
  slo.slo_target = 0.999;
  composed_cfg.admission.tenants = {slo};

  ModelRegistry registry;
  auto tier_owned = std::make_unique<ComposedTier>(dataset, partition, composed_cfg);
  ComposedTier* tier = tier_owned.get();
  const tenant_t tenant = registry.add(slo, std::move(tier_owned));
  registry.publish(tenant, snapshot);
  registry.start();
  std::printf("tower: registry over %d x %d composed tier, tenant %s deadline %.0fµs\n",
              replicas, shards, slo.name.c_str(), slo.deadline_seconds * 1e6);

  // 2. The stream side: an InferenceServer fed by a DeltaPublisher, with a
  //    DeltaLog whose sealed head the freshness probe compares against.
  Dataset stream_data = dataset;
  ServeConfig stream_cfg;
  stream_cfg.num_workers = 1;
  stream_cfg.fanouts = {6, 6};
  InferenceServer stream_server(stream_data, stream_cfg);
  stream_server.publish(snapshot);
  stream_server.start();
  stream::DeltaLog log;
  stream::DeltaPublisher publisher(stream_data, stream_server);

  // 3. The monitor: tight windows so the demo runs in seconds. TierConfig
  //    carries the knobs (make_health_config maps them); the rest of the
  //    rule bounds are shortened to match.
  TierConfig knobs;
  knobs.health_scrape_period_seconds = 0.02;
  knobs.health_fast_window_seconds = 0.4;
  knobs.health_slow_window_seconds = 1.5;
  obs::HealthConfig health_cfg = make_health_config(knobs);
  health_cfg.barrier_timeout_seconds = 0.25;
  health_cfg.epoch_lag_grace_seconds = 0.3;
  health_cfg.stall_timeout_seconds = 0.8;
  obs::HealthMonitor monitor(health_cfg);
  registry.configure_health(monitor);
  tier->configure_health(monitor, "tier");
  publisher.configure_health(monitor, log, "stream");

  EventTally tally;
  monitor.on_event([&tally](const obs::HealthEvent& event) {
    tally.record(event);
    std::printf("health event: %s\n", event.detail.c_str());
    std::fflush(stdout);
  });
  monitor.start();

  // Phase 1 — MMPP burst overload: every completed request violates the
  // 100µs deadline, overspending both burn windows.
  std::printf("== phase 1: MMPP burst vs %s SLO ==\n", slo.name.c_str());
  LoadStream burst;
  burst.tenant = tenant;
  burst.arrivals.process = ArrivalProcess::kMmpp;
  burst.arrivals.rate = rate;
  burst.arrivals.mmpp_rate0 = rate * 0.5;
  burst.arrivals.mmpp_rate1 = rate * 4.0;
  burst.arrivals.seed = seed;
  burst.num_requests = requests;
  burst.seed = seed;
  (void)run_open_loop(burst, registry.backend(tenant), submit_to(registry));
  registry.backend(tenant).drain();
  std::printf("%s\n", monitor.summary_line().c_str());

  // Quiet period: the fast window slides past the burst and the alert
  // resolves (the loop is a bounded wait, not a fixed sleep).
  for (int i = 0; i < 100 && !tally.saw_pair(obs::HealthRule::kBurnRate); ++i)
    sleep_seconds(0.05);
  std::printf("%s\n", monitor.summary_line().c_str());

  // Phase 2 — wedged publish barrier: hold an admission slot open, publish
  // from another thread, and let the watchdog catch the closed barrier.
  std::printf("== phase 2: wedged publish barrier ==\n");
  tier->group().begin_requests(1);
  auto snapshot_v2 = ModelSnapshot::random(spec, seed + 1, /*version=*/2);
  std::thread wedged_publish([&] { tier->publish(std::move(snapshot_v2)); });
  while (!tier->group().publishing()) std::this_thread::yield();
  for (int i = 0; i < 100 && tally.count(obs::HealthRule::kBarrierStuck, true) == 0; ++i)
    sleep_seconds(0.05);
  tier->group().end_request();  // release: the publish completes
  wedged_publish.join();
  for (int i = 0; i < 100 && !tally.saw_pair(obs::HealthRule::kBarrierStuck); ++i)
    sleep_seconds(0.05);
  std::printf("%s\n", monitor.summary_line().c_str());

  // Phase 3 — freshness lag: seal epochs without publishing, then publish
  // the backlog.
  std::printf("== phase 3: sealed epochs outrun the served epoch ==\n");
  std::vector<stream::GraphDelta> backlog;
  for (int i = 0; i < 4; ++i) {
    log.insert_edge(static_cast<vid_t>(i),
                    static_cast<vid_t>((i + 1) % dataset.num_vertices()));
    backlog.push_back(log.seal());
  }
  for (int i = 0; i < 100 && tally.count(obs::HealthRule::kEpochLag, true) == 0; ++i)
    sleep_seconds(0.05);
  for (const stream::GraphDelta& delta : backlog) publisher.publish(delta);
  for (int i = 0; i < 100 && !tally.saw_pair(obs::HealthRule::kEpochLag); ++i)
    sleep_seconds(0.05);
  std::printf("%s\n", monitor.summary_line().c_str());

  monitor.stop();
  stream_server.stop();
  registry.stop();

  // 4. Artifact + verdict.
  {
    std::ofstream out(health_out);
    out << obs::render_health_json(monitor);
  }
  std::printf("health state written to %s (%zu series, %llu ticks)\n", health_out.c_str(),
              monitor.num_series(), static_cast<unsigned long long>(monitor.ticks()));

  bool ok = true;
  const struct {
    obs::HealthRule rule;
    const char* name;
  } expected[] = {{obs::HealthRule::kBurnRate, "burn_rate"},
                  {obs::HealthRule::kBarrierStuck, "barrier_stuck"},
                  {obs::HealthRule::kEpochLag, "epoch_lag"}};
  for (const auto& check : expected) {
    const bool pair = tally.saw_pair(check.rule);
    std::printf("check %s: fired=%d resolved=%d %s\n", check.name,
                tally.count(check.rule, true), tally.count(check.rule, false),
                pair ? "OK" : "MISSING");
    ok = ok && pair;
  }
  std::printf("health summary: %s\n", monitor.summary_line().c_str());
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  try {
    opts.require_known(
        {"vertices", "requests", "rate", "seed", "shards", "replicas", "health-out"});
    return run_demo(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "health_demo: %s\n", e.what());
    return 2;
  }
}
