// Multi-tenant registry benchmarks — the isolation story measured head on:
//
//   * BM_Multitenant_SoloA: tenant A (SAGE) alone in the registry under its
//     nominal Poisson load — the baseline tail.
//   * BM_Multitenant_Isolation: the same A stream (byte-identical arrival
//     schedule) while tenant B (GAT) runs an MMPP overload capped by its
//     token-bucket budget and tenant C (RGCN) trickles — three model
//     families served from one process. CI asserts A's p99 stays within
//     1.5x its solo baseline and A's shed rate is exactly 0: B's burst
//     sheds from B's own lane, never A's.
//   * BM_Multitenant_WeightedFair: two tenants with 2:1 SLO weights
//     saturating one replica through the weighted-fair Router; served QPS
//     converges to the weight share (fair_ratio ~ 2).
//
// Custom flags (strict — typos fail loudly):
//   --seed=N       arrival/vertex stream seed (default 5)
//   --requests=N   requests per tenant per measured run (default 400)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "bench_serving_common.hpp"
#include "graph/datasets.hpp"
#include "graph/hetero.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/replica_group.hpp"
#include "serve/router.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

std::uint64_t g_seed = 5;
std::size_t g_requests = 400;

struct MultitenantFixture {
  Dataset homo;     // SAGE + GAT tenants
  Dataset hetero;   // RGCN tenant (merged graph + per-edge relations)
  std::shared_ptr<const ModelSnapshot> sage;
  std::shared_ptr<const ModelSnapshot> gat;
  std::shared_ptr<const ModelSnapshot> rgcn;
  /// Per-request service time of the SAGE reference — the calibration
  /// constant that makes offered load host-independent.
  double svc = 100e-6;

  static MultitenantFixture& get() {
    static MultitenantFixture f = make();
    return f;
  }

  static MultitenantFixture make() {
    MultitenantFixture f;
    LearnableSbmParams params;
    params.num_vertices = 4096;
    params.num_classes = 8;
    params.avg_degree = 16;
    params.feature_dim = 64;
    params.seed = 9;
    f.homo = make_learnable_sbm(params);
    (void)f.homo.graph.in_csr();

    HeteroDatasetParams hp;
    hp.num_vertices = 2048;
    hp.num_edge_types = 4;
    hp.avg_degree = 8;
    hp.feature_dim = 32;
    hp.seed = 19;
    f.hetero = hetero_to_dataset(make_hetero_dataset(hp));
    (void)f.hetero.graph.in_csr();

    ModelSpec sage;
    sage.kind = ModelKind::kSage;
    sage.feature_dim = f.homo.feature_dim();
    sage.hidden_dim = 64;
    sage.num_classes = f.homo.num_classes;
    sage.num_layers = 2;
    f.sage = ModelSnapshot::random(sage, /*seed=*/1, /*version=*/1);

    ModelSpec gat = sage;
    gat.kind = ModelKind::kGat;
    f.gat = ModelSnapshot::random(gat, /*seed=*/2, /*version=*/1);

    ModelSpec rgcn;
    rgcn.kind = ModelKind::kRgcn;
    rgcn.feature_dim = f.hetero.feature_dim();
    rgcn.hidden_dim = 32;
    rgcn.num_classes = f.hetero.num_classes;
    rgcn.num_layers = 2;
    rgcn.num_relations = f.hetero.num_edge_types;
    f.rgcn = ModelSnapshot::random(rgcn, /*seed=*/3, /*version=*/1);

    // Calibrate the SAGE service rate with a short closed-loop pass.
    InferenceServer single(f.homo, f.serve_config());
    single.publish(f.sage);
    single.start();
    for (vid_t v = 0; v < 64; ++v)
      (void)single.infer_sync((v * 131) % f.homo.num_vertices());
    if (single.mean_service_seconds() > 0) f.svc = single.mean_service_seconds();
    single.stop();
    return f;
  }

  ServeConfig serve_config() const {
    ServeConfig cfg;
    cfg.num_workers = 1;
    cfg.max_batch = 16;
    cfg.fanouts = {10, 10};
    return cfg;
  }
};

/// Tenant A's nominal stream: Poisson at 40% of one worker's capacity, the
/// same schedule in the solo and contended runs (same seed, same rate).
LoadStream stream_a(const MultitenantFixture& f, tenant_t tenant) {
  LoadStream s;
  s.tenant = tenant;
  s.arrivals.process = ArrivalProcess::kPoisson;
  s.arrivals.rate = 0.4 / f.svc;
  s.arrivals.seed = g_seed;
  s.num_requests = g_requests;
  s.seed = g_seed;
  return s;
}

void BM_Multitenant_SoloA(benchmark::State& state) {
  MultitenantFixture& f = MultitenantFixture::get();
  LoadReport last;
  TenantCounters lane;
  for (auto _ : state) {
    ModelRegistry registry;
    TenantSlo slo;
    slo.name = "alpha";
    const tenant_t a = registry.add_server(slo, f.homo, f.serve_config());
    registry.publish(a, f.sage);
    registry.start();
    last = run_open_loop(stream_a(f, a), registry.backend(a), submit_to(registry));
    lane = registry.stats().tenants[static_cast<std::size_t>(a)];
    registry.stop();
  }
  state.SetLabel("solo");
  bench::attach_load_counters(state, last);
  bench::attach_tenant_counters(state, 0, last, lane);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g_requests));
}
BENCHMARK(BM_Multitenant_SoloA)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Multitenant_Isolation(benchmark::State& state) {
  MultitenantFixture& f = MultitenantFixture::get();
  const double capacity = 1.0 / f.svc;
  std::vector<LoadReport> last;
  BackendStats stats;
  obs::MetricsSnapshot scrape;
  for (auto _ : state) {
    ModelRegistry registry;
    TenantSlo slo_a;
    slo_a.name = "alpha";
    const tenant_t a = registry.add_server(slo_a, f.homo, f.serve_config());

    // B's admission budget is a fraction of A's nominal rate: the MMPP
    // overload below offers ~6x that, so most of B's burst sheds at B's
    // bucket and its backend never builds the backlog that would steal CPU.
    TenantSlo slo_b;
    slo_b.name = "bravo";
    slo_b.rate_limit = 0.2 * capacity;
    slo_b.burst = 32;
    const tenant_t b = registry.add_server(slo_b, f.homo, f.serve_config());

    TenantSlo slo_c;
    slo_c.name = "charlie";
    ServeConfig rgcn_cfg = f.serve_config();
    const tenant_t c = registry.add_server(slo_c, f.hetero, rgcn_cfg);

    registry.publish(a, f.sage);
    registry.publish(b, f.gat);
    registry.publish(c, f.rgcn);
    registry.start();

    LoadStream sb;  // the bursty neighbour
    sb.tenant = b;
    sb.arrivals.process = ArrivalProcess::kMmpp;
    sb.arrivals.mmpp_rate0 = 0.3 * capacity;
    sb.arrivals.mmpp_rate1 = 4.0 * capacity;
    sb.arrivals.mmpp_hold0 = 0.005;
    sb.arrivals.mmpp_hold1 = 0.004;
    sb.arrivals.seed = g_seed + 1;
    sb.num_requests = g_requests;
    sb.seed = g_seed + 1;

    LoadStream sc;  // the light relational tenant
    sc.tenant = c;
    sc.arrivals.process = ArrivalProcess::kPoisson;
    sc.arrivals.rate = 0.05 * capacity;
    sc.arrivals.seed = g_seed + 2;
    sc.num_requests = std::max<std::size_t>(16, g_requests / 8);
    sc.seed = g_seed + 2;

    const LoadStream streams[] = {stream_a(f, a), sb, sc};
    last = run_open_loop(
        streams, [&](tenant_t t) -> const ServingBackend& { return registry.backend(t); },
        submit_to(registry));
    stats = registry.stats();
    scrape = obs::MetricsSnapshot{};
    registry.scrape(scrape);
    registry.stop();
  }
  state.SetLabel("A+B(burst)+C");
  bench::attach_load_counters(state, last[0]);  // headline = tenant A
  for (std::size_t t = 0; t < last.size(); ++t)
    bench::attach_tenant_counters(state, static_cast<tenant_t>(t), last[t],
                                  stats.tenants[t]);
  bench::attach_stage_counters(state, scrape, "server");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g_requests));
}
BENCHMARK(BM_Multitenant_Isolation)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Multitenant_WeightedFair(benchmark::State& state) {
  MultitenantFixture& f = MultitenantFixture::get();
  const double capacity = 1.0 / f.svc;
  LoadReport heavy, light;
  RouterStats rstats;
  for (auto _ : state) {
    ReplicaGroup group(f.homo, f.serve_config(), /*num_replicas=*/1);
    group.publish(f.sage);
    group.start();

    AdmissionConfig admission;
    admission.shed_deadlines = false;  // fairness only — nothing sheds
    admission.low_priority_depth = 0;
    TenantSlo w2;
    w2.name = "heavy";
    w2.weight = 2.0;
    TenantSlo w1;
    w1.name = "light";
    w1.weight = 1.0;
    admission.tenants = {w2, w1};
    admission.dispatch_window = 4;  // small window => staging (and WRR) rule
    Router router(group, RoutePolicy::kRoundRobin, admission);

    // Both tenants offer ~3x capacity, so while both lanes are backlogged
    // the dispatch shares follow the 2:1 weights. fair_ratio is the
    // lane-completed ratio sampled when the heavy stream finishes — the
    // light lane is still saturated at that instant, so the ratio reads the
    // weighted shares directly (whole-run QPS would be diluted by the
    // light tenant's post-contention drain at full capacity).
    const auto make_load = [&](tenant_t tenant, std::uint64_t seed) {
      LoadStream load;
      load.arrivals.process = ArrivalProcess::kPoisson;
      load.arrivals.rate = 3.0 * capacity;
      load.arrivals.seed = seed;
      load.num_requests = g_requests;
      load.seed = seed;
      load.tenant = tenant;
      return load;
    };
    RouterStats at_heavy_done;
    std::thread heavy_thread([&] {
      heavy = run_open_loop(make_load(0, g_seed), group, submit_to(router));
      at_heavy_done = router.stats();
    });
    light = run_open_loop(make_load(1, g_seed + 1), group, submit_to(router));
    heavy_thread.join();
    rstats = router.stats();
    group.stop();
    const double served_heavy = static_cast<double>(at_heavy_done.tenants[0].completed);
    const double served_light = static_cast<double>(at_heavy_done.tenants[1].completed);
    state.counters["fair_ratio"] = served_light > 0 ? served_heavy / served_light : 0.0;
  }
  state.SetLabel("w2:w1");
  bench::attach_load_counters(state, heavy);
  bench::attach_admission_counters(state, rstats);
  state.counters["tenant_0_qps"] = heavy.qps;
  state.counters["tenant_1_qps"] = light.qps;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * g_requests));
}
BENCHMARK(BM_Multitenant_WeightedFair)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace distgnn

int main(int argc, char** argv) {
  return distgnn::bench::run_strict_benchmark_main(
      argc, argv, "bench_multitenant", {"seed", "requests"},
      [](const distgnn::Options& opts) {
        distgnn::g_seed = static_cast<std::uint64_t>(
            opts.get_int("seed", static_cast<long long>(distgnn::g_seed)));
        distgnn::g_requests = static_cast<std::size_t>(
            opts.get_int("requests", static_cast<long long>(distgnn::g_requests)));
      });
}
