// Health-monitor overhead benchmarks: what watching the tower costs the
// tower.
//
//   * BM_Health_MixedLoopOverhead: the bench_stream mixed read+write loop
//     (open-loop Poisson reads racing a delta stream through the version
//     barrier) run back to back with the HealthMonitor off and on — the
//     monitor scraping server + publisher, evaluating every rule at its
//     production cadence. Emits both p99s and `overhead_ratio` =
//     p99_on / p99_off; CI gates overhead_ratio < 1.10, pinning the claim
//     that observing the tower does not move its tail.
//   * BM_Health_TickCost: the monitor's scrape+ingest+evaluate cycle in
//     isolation over a live scraped tower — per-tick latency, plus
//     `series_allocs_steady`: series allocations across the measured ticks,
//     which must be 0 (the sample path reuses the warmed rings).
//
// Custom flags (strict — typos fail loudly):
//   --seed=N        traffic/stream seed for reproducible artifacts (5)
//   --requests=N    read requests per measured run (default 1500)
//   --deltas=N      deltas per mixed run (default 16)
//   --read-rate=R   open-loop read arrivals/second (default 600 — sized to
//                   leave CPU headroom so the ratio measures the monitor,
//                   not saturation noise)
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_serving_common.hpp"
#include "graph/datasets.hpp"
#include "obs/health.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/traffic_gen.hpp"
#include "stream/delta_publisher.hpp"
#include "stream/graph_delta.hpp"
#include "stream/mixed_loop.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;
using namespace distgnn::stream;

std::uint64_t g_seed = 5;
std::size_t g_requests = 1500;
std::size_t g_deltas = 16;
double g_read_rate = 600.0;

struct HealthBenchFixture {
  Dataset dataset;
  std::shared_ptr<const ModelSnapshot> snapshot;

  static HealthBenchFixture& get() {
    static HealthBenchFixture f = make();
    return f;
  }

  static HealthBenchFixture make() {
    LearnableSbmParams params;
    params.num_vertices = 2048;
    params.num_classes = 8;
    params.avg_degree = 12;
    params.feature_dim = 32;
    params.seed = 9;
    HealthBenchFixture f{make_learnable_sbm(params), nullptr};
    ModelSpec spec;
    spec.kind = ModelKind::kSage;
    spec.feature_dim = f.dataset.feature_dim();
    spec.hidden_dim = 32;
    spec.num_classes = f.dataset.num_classes;
    spec.num_layers = 2;
    f.snapshot = ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1);
    (void)f.dataset.graph.in_csr();
    return f;
  }
};

ServeConfig health_serve_config() {
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 16;
  cfg.fanouts = {10, 10};
  return cfg;
}

/// One mixed read+write run; when `monitored` the HealthMonitor scrapes the
/// server and publisher at its production cadence for the whole run.
MixedLoopReport run_once(bool monitored) {
  HealthBenchFixture& f = HealthBenchFixture::get();
  DeltaStreamConfig stream_cfg;
  stream_cfg.num_deltas = static_cast<int>(g_deltas);
  stream_cfg.seed = g_seed + 11;
  const std::vector<GraphDelta> deltas = make_delta_stream(f.dataset, stream_cfg);

  MixedLoopConfig mixed;
  mixed.reads.arrivals.process = ArrivalProcess::kPoisson;
  mixed.reads.arrivals.rate = g_read_rate;
  mixed.reads.arrivals.seed = g_seed;
  mixed.reads.num_requests = g_requests;
  mixed.reads.seed = g_seed;
  mixed.writes.process = ArrivalProcess::kPoisson;
  mixed.writes.rate = 100.0;
  mixed.writes.seed = g_seed + 3;

  Dataset live_data = f.dataset;
  InferenceServer server(live_data, health_serve_config());
  server.publish(f.snapshot);
  server.start();
  DeltaPublisher publisher(live_data, server);

  stream::DeltaLog log;  // outlives the monitor's epoch probe
  obs::HealthMonitor monitor;  // production clock + cadence
  if (monitored) {
    monitor.add_source("server", server);
    monitor.set_slo(/*tenant=*/0, /*deadline_seconds=*/5e-3, /*target=*/0.999);
    publisher.configure_health(monitor, log);
    monitor.start();
  }
  const MixedLoopReport report = run_mixed_open_loop(server, publisher, deltas, mixed);
  if (monitored) monitor.stop();
  server.stop();
  return report;
}

void BM_Health_MixedLoopOverhead(benchmark::State& state) {
  MixedLoopReport off, on;
  for (auto _ : state) {
    off = run_once(/*monitored=*/false);
    on = run_once(/*monitored=*/true);
  }
  state.SetLabel("monitor-on-vs-off");
  bench::attach_load_counters(state, on.reads);
  state.counters["p99_off_ms"] = off.reads.p99_ms;
  state.counters["p99_on_ms"] = on.reads.p99_ms;
  state.counters["overhead_ratio"] =
      off.reads.p99_ms > 0 ? on.reads.p99_ms / off.reads.p99_ms : 0.0;
  state.counters["qps_off"] = off.reads.qps;
  state.counters["qps_on"] = on.reads.qps;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(on.reads.completed));
}
BENCHMARK(BM_Health_MixedLoopOverhead)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Health_TickCost(benchmark::State& state) {
  HealthBenchFixture& f = HealthBenchFixture::get();
  Dataset live_data = f.dataset;
  InferenceServer server(live_data, health_serve_config());
  server.publish(f.snapshot);
  server.start();

  // Put real traffic through so the scrape carries populated per-tenant
  // histograms — the expensive case for ingest.
  std::vector<vid_t> vertices;
  const auto n = static_cast<vid_t>(live_data.num_vertices());
  for (vid_t i = 0; i < 128; ++i) vertices.push_back((i * 37) % n);
  (void)server.infer_batch(vertices);
  server.drain();

  obs::HealthMonitor monitor;
  monitor.add_source("server", server);
  monitor.set_slo(0, 5e-3, 0.999);
  for (int i = 0; i < 8; ++i) monitor.tick();  // warm the rings
  const std::uint64_t warmed = monitor.series_allocations();

  for (auto _ : state) monitor.tick();

  state.SetLabel("tick");
  state.counters["series"] = static_cast<double>(monitor.num_series());
  state.counters["series_allocs_steady"] =
      static_cast<double>(monitor.series_allocations() - warmed);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  server.stop();
}
BENCHMARK(BM_Health_TickCost)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace distgnn

int main(int argc, char** argv) {
  return distgnn::bench::run_strict_benchmark_main(
      argc, argv, "bench_health", {"seed", "requests", "deltas", "read-rate"},
      [](const distgnn::Options& opts) {
        distgnn::g_seed = static_cast<std::uint64_t>(
            opts.get_int("seed", static_cast<long long>(distgnn::g_seed)));
        distgnn::g_requests = static_cast<std::size_t>(
            opts.get_int("requests", static_cast<long long>(distgnn::g_requests)));
        distgnn::g_deltas = static_cast<std::size_t>(
            opts.get_int("deltas", static_cast<long long>(distgnn::g_deltas)));
        distgnn::g_read_rate = opts.get_double("read-rate", distgnn::g_read_rate);
      });
}
