// Serving workloads through the whole tower: ModelRegistry -> ComposedTier
// (R=2 replicas x P=2 shards, power-of-two-choices routing), driven open
// loop from one generator thread.
//
//   serve-read   Poisson reads of uniform vertices at a fixed 2,000 req/s on
//                proteins-sim scale 1, classic sampled path; the 5 ms SLO
//                is the capacity search's limit. The 32 MiB of features
//                exceed each rank's 8 MiB feature cache, so sampling, halo
//                fetch and the feature caches are all on the path; the
//                embed cache and the stream layer are not.
//   serve-mixed  Bursty MMPP reads (1,500/s calm, 9,000/s bursts, mean
//                3,000/s) of Zipf(1.0) vertices with the embed cache on, at
//                scale 0.25, beside a writer publishing Poisson 4 deltas/s.
//                Here the embed cache and the stream barrier do the work and
//                halo fetch does none.
#include <cmath>
#include <exception>
#include <memory>
#include <thread>

#include "ledger.hpp"
#include "partition/libra.hpp"
#include "serve/composed_tier.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/sharded_server.hpp"
#include "serve/traffic_gen.hpp"
#include "stream/delta_publisher.hpp"
#include "stream/graph_delta.hpp"
#include "util/rng.hpp"

namespace distgnn::ledger {
namespace {

using namespace distgnn::serve;
using namespace distgnn::stream;

constexpr int kReplicas = 2;
constexpr part_t kShards = 2;
constexpr int kProbeVertices = 64;

// Well inside what the tier sustains within its SLO on a 4-core host, even
// while the host runs slow (traced runs report serve.capacity_qps).
constexpr double kReadRate = 2000;          // serve-read, req/s
// serve-read SLO, s: the limit of the capacity search and of the tower
// probes. The measured windows run without a deadline, so nothing is shed
// and `failed` repeats exactly: with it, a slow spell of a shared host shed
// a few requests in some runs of 40,000 and none in others.
constexpr double kReadDeadline = 0.005;
constexpr double kCalmRate = 1500;          // serve-mixed MMPP, req/s
constexpr double kBurstRate = 9000;
constexpr double kCalmHold = 0.040;         // mean sojourn, s
constexpr double kBurstHold = 0.010;
constexpr double kMixedMeanRate =
    (kCalmRate * kCalmHold + kBurstRate * kBurstHold) / (kCalmHold + kBurstHold);
constexpr double kZipf = 1.0;
constexpr double kDeltaRate = 4;            // serve-mixed writes, deltas/s

// Capacity search (traced serve-read): geometric bisection to 5%.
constexpr double kCapacityLow = 1000, kCapacityHigh = 16000, kCapacityResolution = 1.05;

struct TierShape {
  double scale = 1.0;
  bool embed_forward = false;
  double deadline_seconds = 0;  // registry SLO; 0 = no deadline, nothing is shed
  double trace_rate = 0;
};

ComposedConfig tier_config(const TierShape& shape) {
  ComposedConfig cfg;
  cfg.replicas = kReplicas;
  cfg.policy = RoutePolicy::kPowerOfTwo;
  cfg.shard.max_batch = 16;
  cfg.shard.fanouts = {10, 10};
  cfg.shard.prefetch_depth = 2;
  cfg.shard.embed_forward = shape.embed_forward;
  cfg.shard.embed_cache_bytes = 32ull << 20;
  cfg.shard.trace_sample_rate = shape.trace_rate;
  return cfg;
}

std::shared_ptr<const ModelSnapshot> make_snapshot(const Dataset& data, std::uint64_t seed) {
  ModelSpec spec;
  spec.kind = ModelKind::kSage;
  spec.feature_dim = data.feature_dim();
  spec.hidden_dim = 32;
  spec.num_classes = data.num_classes;
  spec.num_layers = 2;
  return ModelSnapshot::random(spec, derive_seed(seed, 6), /*version=*/1);
}

/// One serving stack. Members are destroyed in reverse order, so the
/// registry (and the tier it owns) stops before the data it reads goes away.
struct Stack {
  Dataset data;
  EdgePartition partition;
  ModelRegistry registry;
  ComposedTier* tier = nullptr;  // owned by the registry
};

struct SetupTimes {
  std::vector<double> total, graph_build, libra;
};

std::unique_ptr<Stack> build_stack(const RunSpec& spec, const TierShape& shape, Report& report,
                                   SetupTimes* times) {
  auto stack = std::make_unique<Stack>();
  const auto t0 = Clock::now();
  const double build = report.spans.time(
      "dataset build", [&] { stack->data = build_dataset(spec.seed, shape.scale); });
  const double libra = report.spans.time("partition_libra", [&] {
    stack->partition = partition_libra(stack->data.graph.coo(), kShards, derive_seed(spec.seed, 4));
  });
  report.spans.time("construct", [&] {
    auto tier = std::make_unique<ComposedTier>(stack->data, stack->partition, tier_config(shape));
    stack->tier = tier.get();
    TenantSlo slo;
    slo.name = "sage";
    slo.deadline_seconds = shape.deadline_seconds;
    stack->registry.add(slo, std::move(tier));
  });
  report.spans.time("publish + start", [&] {
    stack->registry.publish(0, make_snapshot(stack->data, spec.seed));
    stack->registry.start();
  });
  if (times != nullptr) {
    times->total.push_back(seconds_since(t0));
    times->graph_build.push_back(build);
    times->libra.push_back(libra);
  }
  return stack;
}

/// Builds the stack setup_reps() times (each instance torn down before the
/// next is built) and keeps the last.
std::unique_ptr<Stack> set_up(const RunSpec& spec, const TierShape& shape, Report& report,
                              SetupTimes& times) {
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < spec.setup_reps(); ++rep) {
    stack.reset();
    stack = build_stack(spec, shape, report, &times);
  }
  return stack;
}

// ------------------------------------------------------------------ inputs

std::size_t count_for(double rate, double seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
}

std::vector<double> poisson_arrivals(double rate, std::size_t count, std::uint64_t seed) {
  ArrivalConfig arrivals;
  arrivals.process = ArrivalProcess::kPoisson;
  arrivals.rate = rate;
  arrivals.seed = seed;
  return generate_arrivals(arrivals, count);
}

std::vector<double> mixed_arrivals(std::size_t count, std::uint64_t seed) {
  ArrivalConfig arrivals;
  arrivals.process = ArrivalProcess::kMmpp;
  arrivals.mmpp_rate0 = kCalmRate;
  arrivals.mmpp_rate1 = kBurstRate;
  arrivals.mmpp_hold0 = kCalmHold;
  arrivals.mmpp_hold1 = kBurstHold;
  arrivals.seed = seed;
  return generate_arrivals(arrivals, count);
}

std::vector<vid_t> uniform_vertices(vid_t num_vertices, std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<vid_t> out(count);
  for (vid_t& v : out) v = static_cast<vid_t>(rng.next_below(static_cast<std::uint64_t>(num_vertices)));
  return out;
}

/// Zipf draws over a popularity order fixed by the run seed, so warm-up and
/// window share one hot set.
std::vector<vid_t> zipf_vertices(vid_t num_vertices, std::size_t count, std::uint64_t run_seed,
                                 std::uint64_t draw_seed) {
  Rng perm(derive_seed(run_seed, 20));
  const ZipfSampler zipf(static_cast<std::uint64_t>(num_vertices), kZipf, perm);
  Rng rng(draw_seed);
  std::vector<vid_t> out(count);
  for (vid_t& v : out) v = static_cast<vid_t>(zipf.draw(rng));
  return out;
}

SubmitFn via_registry(ModelRegistry& registry) {
  return [&registry](vid_t v, std::function<void(InferResult&&)> done) {
    return registry.submit(0, v, std::move(done));
  };
}

/// Same metadata the registry stamps (tenant 0, the SLO deadline), straight
/// into `backend`: the registry layer is bypassed and nothing else changes.
SubmitFn direct(ServingBackend& backend, double deadline_seconds) {
  return [&backend, deadline_seconds](vid_t v, std::function<void(InferResult&&)> done) {
    RequestMeta meta;
    meta.deadline = ServeClock::now() + std::chrono::duration_cast<ServeClock::duration>(
                                            std::chrono::duration<double>(deadline_seconds));
    return backend.submit(v, meta, std::move(done));
  };
}

OpenLoopResult open_loop(std::span<const double> offsets, std::span<const vid_t> vertices,
                         const SubmitFn& submit) {
  return run_open_loop(Clock::now() + std::chrono::milliseconds(1), offsets, vertices, submit);
}

/// `count` Poisson requests at `rate` of uniform vertices, both from `seed`.
OpenLoopResult poisson_uniform(double rate, std::size_t count, vid_t num_vertices,
                               std::uint64_t seed, const SubmitFn& submit) {
  return open_loop(poisson_arrivals(rate, count, derive_seed(seed, 0)),
                   uniform_vertices(num_vertices, count, derive_seed(seed, 1)), submit);
}

// ---------------------------------------------------------------- probes

std::vector<vid_t> probe_vertices(vid_t num_vertices, std::uint64_t seed) {
  return uniform_vertices(num_vertices, kProbeVertices, derive_seed(seed, 7));
}

/// Bitwise probe: every probe vertex answered through the live registry
/// must equal a single InferenceServer over `reference_data` with the same
/// sampling seed, fanouts and serving path.
bool matches_reference(ModelRegistry& registry, const Dataset& reference_data,
                       const TierShape& shape, std::span<const vid_t> probe) {
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 16;
  cfg.fanouts = tier_config(shape).shard.fanouts;
  cfg.embed_forward = shape.embed_forward;
  InferenceServer reference(reference_data, cfg);
  reference.publish(registry.backend(0).snapshot());
  reference.start();
  bool equal = true;
  for (const vid_t v : probe) {
    const InferResult live = registry.infer_sync(0, v);
    const InferResult cold = reference.infer_sync(v);
    equal = equal && !live.logits.empty() && live.logits == cold.logits;
  }
  reference.stop();
  return equal;
}

// ---------------------------------------------------------------- reports

/// Cumulative tier counters at one instant; two of them bracket a window.
struct TierSample {
  BackendStats stats;
  RouterStats router;
  obs::MetricsSnapshot scrape;
};

TierSample sample(const Stack& stack) {
  return {stack.tier->stats(), stack.tier->router().stats(), stack.registry.scrape_snapshot()};
}

template <typename Stats>
double hit_rate(const Stats& before, const Stats& after) {
  const auto accesses = static_cast<double>(after.accesses - before.accesses);
  const auto misses = static_cast<double>(after.misses - before.misses);
  return accesses > 0 ? 1.0 - misses / accesses : 0.0;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

void report_window(Report& report, const Stack& stack, const SetupTimes& setup,
                   const OpenLoopResult& window, const TierSample& before,
                   const TierSample& after) {
  report.metric("setup_s", median(setup.total), "s");
  report_timing(report, window.latency.size(), [&](double q) { return window.p(q); });
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");

  report.metric("graph.build_s", median(setup.graph_build), "s");
  report.metric("partition.libra_s", median(setup.libra), "s");
  for (const char* stage : {"queue", "sample", "halo_wait", "embed_lookup", "forward", "reply"})
    report.metric(std::string("serve.sharded.") + stage + "_us",
                  stage_mean_us(before.scrape, after.scrape, "distgnn_sharded_stage_seconds", stage),
                  "us");
  const BackendStats& a = before.stats;
  const BackendStats& b = after.stats;
  report.metric("serve.sharded.mean_batch",
                ratio(b.batched_requests - a.batched_requests, b.batches - a.batches), "requests");
  report.metric("serve.sharded.halo_kb_per_req",
                ratio(b.halo_bytes - a.halo_bytes, b.completed - a.completed) / 1024.0, "KiB");
  report.metric("serve.feature_cache.hit_rate", hit_rate(a.feature_cache, b.feature_cache), "ratio");
  report.metric("serve.halo_cache.hit_rate", hit_rate(a.halo_cache, b.halo_cache), "ratio");
  report.metric("serve.embed_cache.hit_rate", hit_rate(a.embed_cache, b.embed_cache), "ratio");
  report.metric("serve.router.shed_frac", after.router.since(before.router).shed_rate(), "ratio");
  report.metric("driver.lag_p99_ms", window.lag_p99() * 1e3, "ms");

  std::vector<double> scrape_seconds;
  for (int i = 0; i < 10; ++i)
    scrape_seconds.push_back(timed([&] { (void)stack.registry.scrape_snapshot(); }));
  report.metric("obs.scrape_ms", median(scrape_seconds) * 1e3, "ms");
}

/// Highest Poisson rate in [1k, 16k]/s, to 5%, at which the registry path
/// holds p99 within the SLO with at most 1% refused, the generator on time
/// (lag p99 <= 1 ms) and the backlog drained within 0.5 s. 0 when even the
/// low end fails.
double capacity_qps(Stack& stack, const RunSpec& spec) {
  const double probe_seconds = spec.seconds / 10;
  const vid_t n = stack.data.num_vertices();
  std::uint64_t probe_index = 0;
  const auto passes = [&](double rate) {
    const std::uint64_t seed = derive_seed(spec.seed, 100 + probe_index++);
    (void)poisson_uniform(rate, count_for(rate, probe_seconds / 4), n, derive_seed(seed, 0),
                          via_registry(stack.registry));
    const OpenLoopResult r = poisson_uniform(rate, count_for(rate, probe_seconds), n,
                                             derive_seed(seed, 1), via_registry(stack.registry));
    return r.p(0.99) <= kReadDeadline && r.failed_frac() <= 0.01 && r.lag_p99() <= 1e-3 &&
           r.drain_seconds <= 0.5;
  };
  double lo = kCapacityLow, hi = kCapacityHigh;
  if (!passes(lo)) return 0.0;
  while (hi / lo > kCapacityResolution) {
    const double mid = std::sqrt(lo * hi);
    (passes(mid) ? lo : hi) = mid;
  }
  return lo;
}

/// Traced serve-read only: per-layer tower overheads as wrapped minus bare
/// p50 at equal per-replica load (untraced), the trace overhead, and the
/// capacity search.
void measure_tower(const RunSpec& spec, double traced_p50, Report& report) {
  TierShape shape;
  shape.deadline_seconds = kReadDeadline;
  std::unique_ptr<Stack> stack = build_stack(spec, shape, report, nullptr);
  const vid_t n = stack->data.num_vertices();
  const std::size_t count = count_for(kReadRate, spec.seconds / 9);
  const std::uint64_t seed = derive_seed(spec.seed, 13);

  (void)poisson_uniform(kReadRate, count_for(kReadRate, spec.warmup_seconds()), n,
                        derive_seed(seed, 0), via_registry(stack->registry));
  // Registry and direct-to-tier windows alternate over identical inputs, so
  // a slow spell of the host lands on both sides of a difference.
  std::vector<double> registry_p50, tier_p50, registry_overhead;
  for (std::uint64_t pair = 0; pair < 3; ++pair) {
    const std::uint64_t inputs = derive_seed(seed, 1 + pair);
    registry_p50.push_back(
        poisson_uniform(kReadRate, count, n, inputs, via_registry(stack->registry)).p(0.5));
    tier_p50.push_back(
        poisson_uniform(kReadRate, count, n, inputs, direct(*stack->tier, kReadDeadline)).p(0.5));
    registry_overhead.push_back(registry_p50.back() - tier_p50.back());
  }
  report.metric("serve.capacity_qps", capacity_qps(*stack, spec), "req/s");
  stack->registry.stop();

  // One bare P=2 ShardedServer at half the rate carries the per-replica
  // load of the R=2 tier.
  ShardedServer bare(stack->data, stack->partition, tier_config(shape).shard);
  bare.publish(stack->tier->snapshot());
  bare.start();
  (void)poisson_uniform(kReadRate / 2, count_for(kReadRate / 2, spec.warmup_seconds()), n,
                        derive_seed(seed, 4), direct(bare, kReadDeadline));
  const double bare_p50 = poisson_uniform(kReadRate / 2, 3 * count / 2, n, derive_seed(seed, 5),
                                          direct(bare, kReadDeadline))
                              .p(0.5);
  bare.stop();

  report.metric("serve.registry.overhead_us", median(registry_overhead) * 1e6, "us");
  report.metric("serve.tier.overhead_us", (median(tier_p50) - bare_p50) * 1e6, "us");
  report.metric("obs.trace_overhead", traced_p50 / median(registry_p50), "ratio");
  measure_kernel_layers(stack->data, spec, report);
}

}  // namespace

void run_serve_read(const RunSpec& spec, Report& report) {
  TierShape shape;
  shape.trace_rate = spec.trace ? 1.0 : 0.0;
  SetupTimes setup;
  std::unique_ptr<Stack> stack = set_up(spec, shape, report, setup);
  const vid_t n = stack->data.num_vertices();

  report.probe("registry_vs_single", matches_reference(stack->registry, stack->data, shape,
                                                       probe_vertices(n, spec.seed)));

  (void)poisson_uniform(kReadRate, count_for(kReadRate, spec.warmup_seconds()), n,
                        derive_seed(spec.seed, 8), via_registry(stack->registry));
  const TierSample before = sample(*stack);
  OpenLoopResult window;
  report.spans.time("window", [&] {
    window = poisson_uniform(kReadRate, count_for(kReadRate, spec.seconds), n,
                             derive_seed(spec.seed, 9), via_registry(stack->registry));
  });
  const TierSample after = sample(*stack);
  report.count(window.latency.size(), window.failed);
  report_window(report, *stack, setup, window, before, after);
  if (!spec.trace) return;

  stack->registry.collect_traces(report.tower_traces);
  stack.reset();
  measure_tower(spec, window.p(0.5), report);
}

void run_serve_mixed(const RunSpec& spec, Report& report) {
  TierShape shape;
  shape.scale = 0.25;
  shape.embed_forward = true;
  shape.trace_rate = spec.trace ? 1.0 : 0.0;
  SetupTimes setup;
  std::unique_ptr<Stack> stack = set_up(spec, shape, report, setup);
  const vid_t n = stack->data.num_vertices();

  const Dataset base = stack->data;  // the cold rebuild starts from here
  DeltaStreamConfig stream_config;
  stream_config.num_deltas = static_cast<int>(count_for(kDeltaRate, spec.seconds));
  stream_config.seed = derive_seed(spec.seed, 12);
  const std::vector<GraphDelta> deltas = make_delta_stream(base, stream_config);
  const std::vector<double> delta_offsets =
      poisson_arrivals(kDeltaRate, deltas.size(), derive_seed(spec.seed, 13));
  const std::size_t reads = count_for(kMixedMeanRate, spec.seconds);
  const std::vector<double> read_offsets = mixed_arrivals(reads, derive_seed(spec.seed, 14));
  const std::vector<vid_t> read_vertices =
      zipf_vertices(n, reads, spec.seed, derive_seed(spec.seed, 15));

  const std::size_t warm = count_for(kMixedMeanRate, spec.warmup_seconds());
  (void)open_loop(mixed_arrivals(warm, derive_seed(spec.seed, 16)),
                  zipf_vertices(n, warm, spec.seed, derive_seed(spec.seed, 17)),
                  via_registry(stack->registry));

  DeltaPublisher publisher(stack->data, *stack->tier, {}, &stack->partition);
  const TierSample before = sample(*stack);
  const obs::MetricsSnapshot stream_before = publisher.scrape_snapshot();
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  std::vector<double> publish_seconds, write_latency;
  std::exception_ptr writer_error;
  std::thread writer([&] {
    try {
      for (std::size_t d = 0; d < deltas.size(); ++d) {
        const auto due = at_offset(start, delta_offsets[d]);
        wait_until(due);
        const auto t0 = Clock::now();
        publisher.publish(deltas[d]);
        const auto t1 = Clock::now();
        report.spans.add("publish " + std::to_string(d), t0, t1);
        publish_seconds.push_back(seconds_between(t0, t1));
        write_latency.push_back(seconds_between(due, t1));
      }
    } catch (...) {
      writer_error = std::current_exception();
    }
  });
  OpenLoopResult window;
  report.spans.time("window", [&] {
    window = run_open_loop(start, read_offsets, read_vertices, via_registry(stack->registry));
  });
  writer.join();
  if (writer_error) std::rethrow_exception(writer_error);
  const TierSample after = sample(*stack);
  const obs::MetricsSnapshot stream_after = publisher.scrape_snapshot();

  Dataset cold = base;
  for (const GraphDelta& delta : deltas) apply_delta(cold, delta);
  report.probe("live_vs_cold",
               matches_reference(stack->registry, cold, shape, probe_vertices(n, spec.seed)));

  report.count(window.latency.size() + deltas.size(), window.failed);
  report_window(report, *stack, setup, window, before, after);
  report.metric("stream.publish_ms", median(publish_seconds) * 1e3, "ms");
  report.metric("stream.write_p50_ms", median(write_latency) * 1e3, "ms");
  for (const char* stage : {"repartition", "apply", "invalidate"})
    report.metric(std::string("stream.") + stage + "_ms",
                  stage_mean_us(stream_before, stream_after, "distgnn_stream_stage_seconds", stage) /
                      1e3,
                  "ms");
  const StreamStats stats = publisher.stats();
  report.metric("stream.dirty_frac", ratio(stats.dirty_entries, stats.full_flush_equivalent),
                "ratio");
  if (!spec.trace) return;

  stack->registry.collect_traces(report.tower_traces);
  publisher.collect_traces(report.tower_traces);
  stack->registry.stop();  // idle ranks still poll; keep them off the kernel probes
  measure_kernel_layers(stack->data, spec, report);
}

}  // namespace distgnn::ledger
