// Replicated serving tier benchmarks: QPS, tail latency (p99/p99.9), and
// shed rate under bursty 2-state MMPP load, swept over replica count and
// routing policy, plus a deadline-shedding on/off comparison at equal
// offered load. Counters land in the CI JSON artifact next to
// bench_serving's, so the serving trajectory covers the replicated tier too.
//
// Custom flags (strict — typos fail loudly):
//   --rate=N         offered MMPP long-run mean rate, requests/s (default 3000)
//   --requests=N     requests per measured run (default 300)
//   --deadline-ms=N  per-request deadline for admission control (default 20)
//   --seed=N         arrival/vertex/priority stream seed (default 5)
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_serving_common.hpp"
#include "graph/datasets.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/replica_group.hpp"
#include "serve/router.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

double g_rate = 3000.0;
std::size_t g_requests = 300;
double g_deadline_ms = 20.0;
// --seed drives the arrival process and the router's vertex/priority
// streams, so the JSON artifact is reproducible run-to-run.
std::uint64_t g_seed = 5;

struct ReplicationFixture {
  Dataset dataset;
  std::shared_ptr<const ModelSnapshot> snapshot;

  static ReplicationFixture& get() {
    static ReplicationFixture f = make();
    return f;
  }

  static ReplicationFixture make() {
    LearnableSbmParams params;
    params.num_vertices = 4096;
    params.num_classes = 8;
    params.avg_degree = 16;
    params.feature_dim = 64;
    params.seed = 9;
    ReplicationFixture f{make_learnable_sbm(params), nullptr};
    ModelSpec spec;
    spec.feature_dim = f.dataset.feature_dim();
    spec.hidden_dim = 64;
    spec.num_classes = f.dataset.num_classes;
    spec.num_layers = 2;
    f.snapshot = ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1);
    (void)f.dataset.graph.in_csr();
    return f;
  }

  ServeConfig config() const {
    ServeConfig cfg;
    cfg.num_workers = 1;  // per replica: scaling comes from replication
    cfg.max_batch = 16;
    cfg.max_batch_delay = std::chrono::microseconds(500);
    cfg.fanouts = {10, 10};
    cfg.queue_capacity = 512;
    return cfg;
  }
};

ArrivalConfig mmpp_arrivals() {
  ArrivalConfig arrivals;
  arrivals.process = ArrivalProcess::kMmpp;
  arrivals.rate = g_rate;
  arrivals.mmpp_rate0 = g_rate / 4;
  arrivals.mmpp_rate1 = g_rate * 4;
  arrivals.seed = g_seed;
  return arrivals;
}

/// One measured run: group of `replicas`, `policy` routing, MMPP arrivals
/// with per-request deadlines; `shed` toggles deadline shedding (the shed=0
/// rows are the equal-offered-load baseline the shedding rows beat on p99).
void run_replicated(benchmark::State& state, int replicas, RoutePolicy policy, bool shed) {
  ReplicationFixture& f = ReplicationFixture::get();
  LoadReport last;
  RouterStats last_stats;
  obs::MetricsSnapshot scrape;
  for (auto _ : state) {
    ReplicaGroup group(f.dataset, f.config(), replicas);
    group.publish(f.snapshot);
    group.start();
    AdmissionConfig admission;
    admission.shed_deadlines = shed;
    admission.low_priority_depth = 64;
    Router router(group, policy, admission);

    // Closed-loop warmup primes the per-replica service-rate estimate the
    // deadline controller divides queue depth by.
    std::vector<vid_t> warmup;
    for (vid_t v = 0; v < 32; ++v) warmup.push_back((v * 131) % f.dataset.num_vertices());
    (void)router.infer_batch(warmup);
    const RouterStats warmed = router.stats();  // measured run reports deltas

    LoadStream load;
    load.arrivals = mmpp_arrivals();
    load.num_requests = g_requests;
    load.deadline_seconds = g_deadline_ms * 1e-3;
    load.low_priority_fraction = 0.3;
    load.seed = g_seed;
    last = run_open_loop(load, group, submit_to(router));
    last_stats = router.stats().since(warmed);
    scrape = obs::MetricsSnapshot{};
    router.scrape(scrape);
    group.stop();
  }
  state.SetLabel(route_policy_name(policy) + (shed ? "/shed" : "/no-shed"));
  bench::attach_load_counters(state, last);
  bench::attach_admission_counters(state, last_stats);
  bench::attach_stage_counters(state, scrape, "server");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(g_requests));
}

void BM_ReplicatedMmpp_RoundRobin(benchmark::State& state) {
  run_replicated(state, static_cast<int>(state.range(0)), RoutePolicy::kRoundRobin, true);
}
BENCHMARK(BM_ReplicatedMmpp_RoundRobin)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ReplicatedMmpp_LeastOutstanding(benchmark::State& state) {
  run_replicated(state, static_cast<int>(state.range(0)), RoutePolicy::kLeastOutstanding, true);
}
BENCHMARK(BM_ReplicatedMmpp_LeastOutstanding)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ReplicatedMmpp_PowerOfTwo(benchmark::State& state) {
  run_replicated(state, static_cast<int>(state.range(0)), RoutePolicy::kPowerOfTwo, true);
}
BENCHMARK(BM_ReplicatedMmpp_PowerOfTwo)
    ->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Equal offered load, shedding disabled: the admitted-p99 baseline that the
/// shedding configuration above must beat (the paper-style A/B the
/// acceptance criteria pin).
void BM_ReplicatedMmpp_NoShed(benchmark::State& state) {
  run_replicated(state, static_cast<int>(state.range(0)), RoutePolicy::kPowerOfTwo, false);
}
BENCHMARK(BM_ReplicatedMmpp_NoShed)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace distgnn

int main(int argc, char** argv) {
  return distgnn::bench::run_strict_benchmark_main(
      argc, argv, "bench_replication_serving", {"rate", "requests", "deadline-ms", "seed"},
      [](const distgnn::Options& opts) {
        distgnn::g_rate = opts.get_double("rate", distgnn::g_rate);
        distgnn::g_requests = static_cast<std::size_t>(
            opts.get_int("requests", static_cast<long long>(distgnn::g_requests)));
        distgnn::g_deadline_ms = opts.get_double("deadline-ms", distgnn::g_deadline_ms);
        distgnn::g_seed = static_cast<std::uint64_t>(
            opts.get_int("seed", static_cast<long long>(distgnn::g_seed)));
      });
}
