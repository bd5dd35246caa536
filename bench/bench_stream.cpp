// Streaming-update benchmarks: what graph mutability costs the read path,
// and what targeted invalidation saves over the blunt alternative.
//
//   * BM_Stream_FrozenBaseline: open-loop Poisson reads, no writes — the
//     p99 yardstick the mixed runs are compared against.
//   * BM_Stream_MixedPoisson / BM_Stream_MixedMmpp: the same read workload
//     while a delta stream publishes through the version barrier (Poisson
//     at --write-rate, or bursty 2-state MMPP — bursts are the hard case,
//     each delta costs a drain). Emits read QPS/tails, apply-latency
//     quantiles, the final epoch, and `match`: after the run the live
//     server is probed against a cold server built over the final graph —
//     1.0 iff every logit is bitwise-equal. CI asserts match == 1 and
//     mixed p99 < 1.5x frozen p99.
//   * BM_Stream_InvalidationTargetedVsFlush: embed-forward A/B — warm the
//     layer-output cache, publish one small delta, measure the next pass's
//     hit rate under targeted (k-hop dirty set) vs full-flush invalidation.
//     CI asserts hit_targeted >= 5x hit_flush.
//
// Custom flags (strict — typos fail loudly):
//   --seed=N        traffic/stream seed for reproducible artifacts (5)
//   --requests=N    read requests per measured run (default 2000)
//   --deltas=N      deltas per mixed run (default 24)
//   --write-rate=R  mean delta publishes/second (default 100)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bench_serving_common.hpp"
#include "graph/datasets.hpp"
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
std::size_t g_requests = 2000;
std::size_t g_deltas = 24;
double g_write_rate = 100.0;

struct StreamFixture {
  Dataset dataset;
  std::shared_ptr<const ModelSnapshot> snapshot;

  static StreamFixture& get() {
    static StreamFixture f = make();
    return f;
  }

  static StreamFixture make() {
    LearnableSbmParams params;
    params.num_vertices = 4096;
    params.num_classes = 8;
    params.avg_degree = 16;
    params.feature_dim = 32;
    params.seed = 9;
    StreamFixture f{make_learnable_sbm(params), nullptr};
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

ServeConfig stream_serve_config() {
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 16;
  cfg.fanouts = {10, 10};
  return cfg;
}

LoadStream read_stream() {
  LoadStream reads;
  reads.arrivals.process = ArrivalProcess::kPoisson;
  reads.arrivals.rate = 2000.0;
  reads.arrivals.seed = g_seed;
  reads.num_requests = g_requests;
  reads.seed = g_seed;
  return reads;
}

Dataset rebuild_final(const Dataset& base, const std::vector<GraphDelta>& deltas) {
  Dataset cold = base;
  for (const GraphDelta& delta : deltas) apply_delta(cold, delta);
  return cold;
}

/// Bitwise freshness probe: 1.0 iff the streamed server answers every probe
/// identically to a cold server over the final graph.
double probe_matches_cold(ServingBackend& live, const Dataset& final_data,
                          const std::shared_ptr<const ModelSnapshot>& snapshot) {
  InferenceServer cold(final_data, stream_serve_config());
  cold.publish(snapshot);
  cold.start();
  bool all_equal = true;
  const auto n = static_cast<vid_t>(final_data.num_vertices());
  for (vid_t i = 0; i < 64; ++i) {
    const vid_t v = (i * 61) % n;
    if (live.infer_sync(v).logits != cold.infer_sync(v).logits) all_equal = false;
  }
  cold.stop();
  return all_equal ? 1.0 : 0.0;
}

/// Shared body for the mixed read+write runs; `writes` selects the delta
/// arrival process.
void run_mixed(benchmark::State& state, const ArrivalConfig& writes, const char* label) {
  StreamFixture& f = StreamFixture::get();
  DeltaStreamConfig stream_cfg;
  stream_cfg.num_deltas = g_deltas;
  stream_cfg.seed = g_seed + 11;
  const std::vector<GraphDelta> deltas = make_delta_stream(f.dataset, stream_cfg);

  MixedLoopConfig mixed;
  mixed.reads = read_stream();
  mixed.writes = writes;

  MixedLoopReport report;
  StreamStats stats;
  obs::MetricsSnapshot scrape;
  double match = 0.0;
  for (auto _ : state) {
    Dataset live_data = f.dataset;
    InferenceServer server(live_data, stream_serve_config());
    server.publish(f.snapshot);
    server.start();
    DeltaPublisher publisher(live_data, server);
    report = run_mixed_open_loop(server, publisher, deltas, mixed);
    stats = publisher.stats();
    scrape = obs::MetricsSnapshot{};
    publisher.scrape(scrape);
    state.PauseTiming();
    match = probe_matches_cold(server, rebuild_final(f.dataset, deltas), f.snapshot);
    state.ResumeTiming();
    server.stop();
  }

  state.SetLabel(label);
  bench::attach_load_counters(state, report.reads);
  bench::attach_stage_counters(state, scrape, "stream");
  state.counters["match"] = match;
  state.counters["deltas"] = static_cast<double>(report.deltas_published);
  state.counters["final_epoch"] = static_cast<double>(report.final_epoch);
  state.counters["apply_mean_ms"] = report.apply_mean_ms;
  state.counters["apply_p50_ms"] = report.apply_p50_ms;
  state.counters["apply_p99_ms"] = report.apply_p99_ms;
  state.counters["dirty_entries"] = static_cast<double>(stats.dirty_entries);
  state.counters["full_flush_equivalent"] = static_cast<double>(stats.full_flush_equivalent);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(report.reads.completed));
}

void BM_Stream_FrozenBaseline(benchmark::State& state) {
  StreamFixture& f = StreamFixture::get();
  LoadReport report;
  for (auto _ : state) {
    Dataset live_data = f.dataset;
    InferenceServer server(live_data, stream_serve_config());
    server.publish(f.snapshot);
    server.start();
    report = run_open_loop(read_stream(), server, submit_to(server));
    server.stop();
  }
  state.SetLabel("frozen");
  bench::attach_load_counters(state, report);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(report.completed));
}
BENCHMARK(BM_Stream_FrozenBaseline)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Stream_MixedPoisson(benchmark::State& state) {
  ArrivalConfig writes;
  writes.process = ArrivalProcess::kPoisson;
  writes.rate = g_write_rate;
  writes.seed = g_seed + 3;
  run_mixed(state, writes, "poisson-writes");
}
BENCHMARK(BM_Stream_MixedPoisson)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Stream_MixedMmpp(benchmark::State& state) {
  // Bursty writes with the same long-run mean as --write-rate: a quarter of
  // the mean in the calm state, 4x in the burst state.
  ArrivalConfig writes;
  writes.process = ArrivalProcess::kMmpp;
  writes.rate = g_write_rate;
  writes.mmpp_rate0 = g_write_rate * 0.25;
  writes.mmpp_rate1 = g_write_rate * 4.0;
  writes.mmpp_hold0 = 0.040;
  writes.mmpp_hold1 = 0.010;
  writes.seed = g_seed + 3;
  run_mixed(state, writes, "mmpp-writes");
}
BENCHMARK(BM_Stream_MixedMmpp)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Embed-forward hit rate of the pass right after one small delta, under
/// the given invalidation policy. The warm pass uses canonical sampling, so
/// a retained entry is a guaranteed hit on the next pass.
double hit_rate_after_delta(bool full_flush) {
  StreamFixture& f = StreamFixture::get();
  Dataset live_data = f.dataset;
  ServeConfig cfg = stream_serve_config();
  cfg.embed_forward = true;
  cfg.embed_cache_bytes = 32ull << 20;
  InferenceServer server(live_data, cfg);
  server.publish(f.snapshot);
  server.start();
  StreamConfig stream_cfg;
  stream_cfg.full_flush = full_flush;
  DeltaPublisher publisher(live_data, server, stream_cfg);

  const auto n = static_cast<vid_t>(live_data.num_vertices());
  std::vector<vid_t> probes;
  for (vid_t i = 0; i < 64; ++i) probes.push_back((i * 61) % n);
  for (const vid_t v : probes) (void)server.infer_sync(v);  // warm

  GraphDelta delta;  // small: 4 edge inserts, the targeted case's sweet spot
  for (vid_t i = 0; i < 4; ++i)
    delta.edge_inserts.push_back({static_cast<vid_t>(i * 101 % n),
                                  static_cast<vid_t>((i * 211 + 7) % n), 0});
  publisher.publish(delta);

  const CacheStats before = server.stats().embed_cache;
  for (const vid_t v : probes) (void)server.infer_sync(v);
  const CacheStats after = server.stats().embed_cache;
  server.stop();
  const double accesses = static_cast<double>(after.accesses - before.accesses);
  const double misses = static_cast<double>(after.misses - before.misses);
  return accesses > 0 ? 1.0 - misses / accesses : 0.0;
}

void BM_Stream_InvalidationTargetedVsFlush(benchmark::State& state) {
  double hit_targeted = 0.0, hit_flush = 0.0;
  for (auto _ : state) {
    hit_targeted = hit_rate_after_delta(/*full_flush=*/false);
    hit_flush = hit_rate_after_delta(/*full_flush=*/true);
  }
  state.SetLabel("targeted-vs-flush");
  state.counters["hit_targeted"] = hit_targeted;
  state.counters["hit_flush"] = hit_flush;
  state.counters["hit_ratio"] =
      hit_flush > 0 ? hit_targeted / hit_flush : (hit_targeted > 0 ? 1e9 : 0.0);
}
BENCHMARK(BM_Stream_InvalidationTargetedVsFlush)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace distgnn

int main(int argc, char** argv) {
  return distgnn::bench::run_strict_benchmark_main(
      argc, argv, "bench_stream", {"seed", "requests", "deltas", "write-rate"},
      [](const distgnn::Options& opts) {
        distgnn::g_seed = static_cast<std::uint64_t>(
            opts.get_int("seed", static_cast<long long>(distgnn::g_seed)));
        distgnn::g_requests = static_cast<std::size_t>(
            opts.get_int("requests", static_cast<long long>(distgnn::g_requests)));
        distgnn::g_deltas = static_cast<std::size_t>(
            opts.get_int("deltas", static_cast<long long>(distgnn::g_deltas)));
        distgnn::g_write_rate = opts.get_double("write-rate", distgnn::g_write_rate);
      });
}
