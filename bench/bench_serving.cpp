// Serving-path benchmarks: micro-batched forward throughput, closed-loop
// QPS, and open-loop tail latency under Poisson and bursty 2-state MMPP
// arrivals. QPS, p50/p95/p99/p99.9, and the log2 latency histogram are
// exported as counters so CI's --benchmark_format=json artifact carries the
// full serving trajectory including the tail shape.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_serving_common.hpp"
#include "graph/datasets.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/traffic_gen.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

// --seed drives the traffic vertex stream and the arrival process, so the
// JSON artifact is reproducible run-to-run (and comparable across hosts).
std::uint64_t g_seed = 5;

struct ServingFixture {
  Dataset dataset;
  std::shared_ptr<const ModelSnapshot> snapshot;

  static ServingFixture& get() {
    static ServingFixture f = make();
    return f;
  }

  static ServingFixture make() {
    LearnableSbmParams params;
    params.num_vertices = 4096;
    params.num_classes = 8;
    params.avg_degree = 16;
    params.feature_dim = 64;
    params.seed = 9;
    ServingFixture f{make_learnable_sbm(params), nullptr};
    ModelSpec spec;
    spec.feature_dim = f.dataset.feature_dim();
    spec.hidden_dim = 64;
    spec.num_classes = f.dataset.num_classes;
    spec.num_layers = 2;
    f.snapshot = ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1);
    (void)f.dataset.graph.in_csr();
    return f;
  }

  ServeConfig config(int workers, int max_batch) const {
    ServeConfig cfg;
    cfg.num_workers = workers;
    cfg.max_batch = max_batch;
    cfg.max_batch_delay = std::chrono::microseconds(500);
    cfg.fanouts = {10, 10};
    return cfg;
  }
};

/// Raw model-side throughput of the stacked micro-batch forward, swept over
/// batch size: the GEMM-amortization curve that motivates batching at all.
void BM_MicroBatchForward(benchmark::State& state) {
  ServingFixture& f = ServingFixture::get();
  const int batch_size = static_cast<int>(state.range(0));
  const std::vector<int> fanouts = {10, 10};
  const std::size_t dim = static_cast<std::size_t>(f.dataset.feature_dim());

  std::vector<MiniBatch> batch;
  std::size_t rows = 0;
  for (int i = 0; i < batch_size; ++i) {
    const vid_t v = (static_cast<vid_t>(i) * 131) % f.dataset.num_vertices();
    Rng rng = request_rng(1, v);
    const vid_t seed[1] = {v};
    batch.push_back(sample_minibatch(f.dataset.graph.in_csr(), seed, fanouts, rng));
    rows += batch.back().input_vertices.size();
  }
  DenseMatrix inputs(rows, dim);
  std::size_t row = 0;
  for (const MiniBatch& mb : batch)
    for (const vid_t v : mb.input_vertices) {
      const real_t* src = f.dataset.features.row(static_cast<std::size_t>(v));
      std::copy(src, src + dim, inputs.row(row++));
    }

  ForwardScratch scratch;
  DenseMatrix logits;
  for (auto _ : state) {
    f.snapshot->forward_batch(batch, inputs.cview(), scratch, logits);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_MicroBatchForward)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_ClosedLoop(benchmark::State& state) {
  ServingFixture& f = ServingFixture::get();
  const int clients = static_cast<int>(state.range(0));
  LoadReport last;
  obs::MetricsSnapshot scrape;
  for (auto _ : state) {
    InferenceServer server(f.dataset, f.config(/*workers=*/2, /*max_batch=*/16));
    server.publish(f.snapshot);
    server.start();
    TrafficGenerator traffic(server, g_seed);
    last = traffic.run_closed_loop(clients, /*requests_each=*/200 / clients);
    scrape = obs::MetricsSnapshot{};
    server.scrape(scrape);
    server.stop();
  }
  bench::attach_load_counters(state, last);
  bench::attach_stage_counters(state, scrape, "server");
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_ClosedLoop)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

void open_loop_bench(benchmark::State& state, ArrivalProcess process) {
  ServingFixture& f = ServingFixture::get();
  LoadStream load;
  load.arrivals.process = process;
  load.arrivals.rate = static_cast<double>(state.range(0));
  load.arrivals.seed = g_seed;
  // Scale the MMPP states to the same long-run mean as the Poisson rate.
  load.arrivals.mmpp_rate0 = load.arrivals.rate / 4;
  load.arrivals.mmpp_rate1 = load.arrivals.rate * 4;
  load.num_requests = 400;
  load.seed = g_seed;
  LoadReport last;
  obs::MetricsSnapshot scrape;
  for (auto _ : state) {
    InferenceServer server(f.dataset, f.config(/*workers=*/2, /*max_batch=*/16));
    server.publish(f.snapshot);
    server.start();
    last = run_open_loop(load, server, submit_to(server));
    scrape = obs::MetricsSnapshot{};
    server.scrape(scrape);
    server.stop();
  }
  bench::attach_load_counters(state, last);
  bench::attach_stage_counters(state, scrape, "server");
  state.SetItemsProcessed(state.iterations() * 400);
}

void BM_OpenLoop_Poisson(benchmark::State& state) {
  open_loop_bench(state, ArrivalProcess::kPoisson);
}
BENCHMARK(BM_OpenLoop_Poisson)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_OpenLoop_Mmpp(benchmark::State& state) { open_loop_bench(state, ArrivalProcess::kMmpp); }
BENCHMARK(BM_OpenLoop_Mmpp)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Tracing-overhead guard: the same open-loop Poisson run with stage tracing
/// off vs on at the production sampling rate (1%). Emits both p99s and their
/// ratio; CI gates overhead_ratio so the wait-free metrics path and the
/// pre-push trace stamping stay effectively free on the hot path.
void BM_TracingOverhead(benchmark::State& state) {
  ServingFixture& f = ServingFixture::get();
  LoadStream load;
  load.arrivals.process = ArrivalProcess::kPoisson;
  load.arrivals.rate = 2000;
  load.arrivals.seed = g_seed;
  load.num_requests = 400;
  load.seed = g_seed;
  double p99_off = 0, p99_on = 0;
  for (auto _ : state) {
    for (const double rate : {0.0, 0.01}) {
      ServeConfig cfg = f.config(/*workers=*/2, /*max_batch=*/16);
      cfg.trace_sample_rate = rate;
      InferenceServer server(f.dataset, cfg);
      server.publish(f.snapshot);
      server.start();
      const LoadReport report = run_open_loop(load, server, submit_to(server));
      server.stop();
      (rate == 0.0 ? p99_off : p99_on) = report.p99_ms;
    }
  }
  state.counters["p99_off_ms"] = p99_off;
  state.counters["p99_on_ms"] = p99_on;
  state.counters["overhead_ratio"] = p99_off > 0 ? p99_on / p99_off : 0.0;
  state.SetItemsProcessed(state.iterations() * 800);
}
BENCHMARK(BM_TracingOverhead)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace distgnn

int main(int argc, char** argv) {
  return distgnn::bench::run_strict_benchmark_main(
      argc, argv, "bench_serving", {"seed"}, [](const distgnn::Options& opts) {
        distgnn::g_seed = static_cast<std::uint64_t>(
            opts.get_int("seed", static_cast<long long>(distgnn::g_seed)));
      });
}
