// End-to-end serving demo: train GraphSAGE on a learnable synthetic graph,
// checkpoint it, load the checkpoint into an immutable ModelSnapshot, serve
// it through the micro-batching InferenceServer, and drive it with closed-
// and open-loop (Poisson + bursty MMPP) traffic — including a live hot-swap
// to a further-trained checkpoint mid-stream.
//
//   ./serve_demo [--vertices=2048] [--epochs=20] [--workers=2] [--batch=8]
//                [--delay-us=200] [--arrival=mmpp|poisson] [--rate=2000]
//                [--requests=400] [--clients=4] [--seed=1] [--zipf-s=0]
//                [--replicas=2] [--policy=p2c|round-robin|least-outstanding]
//                [--deadline-ms=20] [--low-frac=0.3] [--no-shed]
//                [--embed-cache-mb=32] [--shards=2] [--trace-rate=0.05]
//                [--metrics-out=metrics.prom] [--trace-out=traces.json]
//
// --zipf-s skews query popularity (0 = uniform); with a skewed workload the
// final stage serves the same checkpoint through the embedding-cached
// forward (EmbedForward + EmbedCache) cache-on vs cache-off and prints an
// "embed cache summary:" line with the hit rate and both p99s.
//
// After the single-server stages, the same snapshot goes to a replicated
// tier: a ReplicaGroup of --replicas servers fronted by a Router with the
// chosen load-balancing policy and deadline-aware admission control, driven
// by the same arrival process at the same rate. The final stage composes
// both scaling axes — a ComposedTier of --replicas ShardedServers over
// --shards vertex-cut shards each — publishes through the broadcast wire
// path, checks a probe batch bitwise against the single server, and drives
// the same arrival process through the grid ("composed summary:" line).
//
// Every tier runs with stage tracing at --trace-rate sampling. After the
// multi-tenant stage a "stage breakdown" table shows p50/p99 per serving
// stage per tenant straight from the registry scrape, and --metrics-out /
// --trace-out dump one combined scrape (composed tier + registry) as
// Prometheus text and the sampled requests as Chrome trace_event JSON
// (loadable in Perfetto / chrome://tracing).
//
// The last stage is multi-tenant: a ModelRegistry serving three model
// families at once (the trained SAGE, a GAT, an RGCN over a heterogeneous
// graph), each under its own SLO. Tenant A runs its nominal Poisson load
// while tenant B takes an MMPP overload capped by a token-bucket budget —
// the "multitenant summary:" line shows B shedding from its own lane while
// A's tail stays flat.
//
// Unknown flags are rejected (util/options strict mode) so typos fail loudly.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/single_socket_trainer.hpp"
#include "obs/expose.hpp"
#include "obs/health.hpp"
#include "graph/datasets.hpp"
#include "nn/serialize.hpp"
#include "partition/libra.hpp"
#include "serve/composed_tier.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/replica_group.hpp"
#include "serve/router.hpp"
#include "serve/traffic_gen.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace distgnn;
using namespace distgnn::serve;

namespace {

int run_demo(const Options& opts) {
  // Fail on a bad --policy value before any training work happens.
  const RoutePolicy policy = parse_route_policy(opts.get("policy", "p2c"));

  // 1. Train a model worth serving.
  LearnableSbmParams params;
  params.num_vertices = opts.get_int("vertices", 2048);
  params.num_classes = 8;
  params.avg_degree = 16;
  params.feature_dim = 32;
  const Dataset dataset = make_learnable_sbm(params);
  std::printf("dataset: |V|=%lld |E|=%lld features=%d classes=%d\n",
              static_cast<long long>(dataset.num_vertices()),
              static_cast<long long>(dataset.num_edges()), dataset.feature_dim(),
              dataset.num_classes);

  TrainConfig train_cfg;
  train_cfg.num_layers = 2;
  train_cfg.hidden_dim = 32;
  train_cfg.lr = 0.1;
  SingleSocketTrainer trainer(dataset, train_cfg);
  const int epochs = static_cast<int>(opts.get_int("epochs", 20));
  for (int e = 0; e < epochs; ++e) trainer.train_epoch();
  std::printf("trained %d epochs, test accuracy %.2f%%\n", epochs,
              100 * trainer.evaluate(dataset.test_mask));

  // 2. Checkpoint, then load the checkpoint into an immutable snapshot.
  const std::string ckpt = opts.get("checkpoint", "/tmp/distgnn_serve_demo.ckpt");
  auto trained_params = trainer.model().params();
  save_checkpoint(trained_params, ckpt);
  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = train_cfg.hidden_dim;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = train_cfg.num_layers;
  auto snapshot_v1 = ModelSnapshot::from_checkpoint(spec, ckpt, /*version=*/1);
  std::printf("snapshot v1 loaded from %s\n", ckpt.c_str());

  // 3. Serve it.
  ServeConfig serve_cfg;
  serve_cfg.num_workers = static_cast<int>(opts.get_int("workers", 2));
  serve_cfg.max_batch = static_cast<int>(opts.get_int("batch", 8));
  serve_cfg.max_batch_delay = std::chrono::microseconds(opts.get_int("delay-us", 200));
  serve_cfg.fanouts = std::vector<int>(static_cast<std::size_t>(train_cfg.num_layers), 10);
  serve_cfg.sample_seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  serve_cfg.trace_sample_rate = opts.get_double("trace-rate", 0.05);
  InferenceServer server(dataset, serve_cfg);
  server.publish(snapshot_v1);
  server.start();

  const double zipf_s = opts.get_double("zipf-s", 0.0);
  TrafficGenerator traffic(server, serve_cfg.sample_seed, zipf_s);
  const int clients = std::max(1, static_cast<int>(opts.get_int("clients", 4)));
  const auto requests =
      static_cast<std::size_t>(std::max<long long>(1, opts.get_int("requests", 400)));
  std::vector<LoadReport> reports;
  reports.push_back(
      traffic.run_closed_loop(clients, std::max(1, static_cast<int>(requests) / clients)));

  // 4. Hot-swap to a further-trained checkpoint under live traffic, then
  //    drive the requested open-loop arrival process against v2.
  for (int e = 0; e < epochs / 2; ++e) trainer.train_epoch();
  trained_params = trainer.model().params();
  save_checkpoint(trained_params, ckpt);
  server.publish(ModelSnapshot::from_checkpoint(spec, ckpt, /*version=*/2));
  std::printf("hot-swapped to snapshot v2 (publishes so far: %.0f; requests served: %llu)\n",
              server.scrape_snapshot().counter_total("distgnn_server_publishes_total"),
              static_cast<unsigned long long>(server.stats().completed));

  LoadStream load;
  ArrivalConfig& arrivals = load.arrivals;
  const std::string process = opts.get("arrival", "mmpp");
  arrivals.process = process == "poisson" ? ArrivalProcess::kPoisson : ArrivalProcess::kMmpp;
  arrivals.rate = opts.get_double("rate", 2000);
  arrivals.mmpp_rate0 = arrivals.rate / 4;
  arrivals.mmpp_rate1 = arrivals.rate * 4;
  load.num_requests = requests;
  load.seed = serve_cfg.sample_seed;
  load.zipf_s = zipf_s;
  reports.push_back(run_open_loop(load, server, submit_to(server)));

  std::printf("%s\n", render_load_reports(reports, "serving load (closed + open loop)").c_str());

  const BackendStats stats = server.stats();
  std::printf("feature cache: %llu accesses, hit rate %.3f, reuse %.2f, %llu bytes read\n",
              static_cast<unsigned long long>(stats.feature_cache.accesses),
              stats.feature_cache.hit_rate(), stats.feature_cache.reuse(),
              static_cast<unsigned long long>(stats.feature_cache.bytes_read));
  std::printf("micro-batching: %llu batches, mean batch %.2f\n",
              static_cast<unsigned long long>(stats.batches), stats.mean_batch());

  // Machine-greppable summary for CI smoke checks.
  const LoadReport& open = reports.back();
  std::printf("serving summary: QPS=%.0f p50_ms=%.3f p99_ms=%.3f rejected=%llu\n", open.qps,
              open.p50_ms, open.p99_ms, static_cast<unsigned long long>(open.rejected));

  // Reference answers for the composed tier's bitwise check (stage 7),
  // taken from the live single server before it goes away.
  std::vector<vid_t> probe;
  std::vector<std::vector<real_t>> probe_expected;
  for (vid_t v = 0; v < 16; ++v)
    probe.push_back((v * 131) % static_cast<vid_t>(dataset.num_vertices()));
  for (const vid_t v : probe) probe_expected.push_back(server.infer_sync(v).logits);
  server.stop();

  // 5. Replicated tier: the v2 snapshot published to a ReplicaGroup as one
  //    version-barriered group operation, fronted by a Router with deadline
  //    admission and a low-priority shed lane, under the same arrival
  //    process at the same offered rate.
  const int replicas = std::max(1, static_cast<int>(opts.get_int("replicas", 2)));
  ReplicaGroup group(dataset, serve_cfg, replicas);
  group.publish(server.snapshot());
  group.start();

  AdmissionConfig admission;
  admission.shed_deadlines = !opts.get_bool("no-shed", false);
  admission.low_priority_depth = serve_cfg.queue_capacity / 8;
  Router router(group, policy, admission);
  std::printf("replicated tier: %d replicas, %s routing, group version %llu\n", replicas,
              route_policy_name(policy).c_str(),
              static_cast<unsigned long long>(group.version()));

  // Closed-loop warmup primes the service-rate estimate admission divides by.
  std::vector<vid_t> warmup;
  for (vid_t v = 0; v < 32; ++v)
    warmup.push_back((v * 131) % static_cast<vid_t>(dataset.num_vertices()));
  (void)router.infer_batch(warmup);
  const RouterStats warmed = router.stats();  // report the measured run only

  load.deadline_seconds = opts.get_double("deadline-ms", 20.0) * 1e-3;
  load.low_priority_fraction = opts.get_double("low-frac", 0.3);
  const LoadReport replicated = run_open_loop(load, group, submit_to(router));
  group.stop();

  std::printf("%s\n",
              render_load_reports(std::vector<LoadReport>{replicated}, "replicated tier").c_str());
  const RouterStats rstats = router.stats().since(warmed);
  std::printf("admission: %llu admitted, shed %llu deadline / %llu priority / %llu queue-full\n",
              static_cast<unsigned long long>(rstats.admitted),
              static_cast<unsigned long long>(rstats.shed_deadline),
              static_cast<unsigned long long>(rstats.shed_priority),
              static_cast<unsigned long long>(rstats.shed_queue_full));
  std::printf("replicated summary: QPS=%.0f p99_ms=%.3f p99_9_ms=%.3f shed_rate=%.3f\n",
              replicated.qps, replicated.p99_ms, replicated.p999_ms, rstats.shed_rate());

  // 6. Embedding-cached serving: the same checkpoint through EmbedForward,
  //    cache-on vs cache-off, under (optionally Zipf-skewed) repeat queries.
  //    Same canonical sampling both ways, so answers match bitwise; only the
  //    redundant subtree work disappears on hits.
  const double zipf_bench_s = zipf_s > 0 ? zipf_s : 1.0;  // repeats need skew
  const int per_client = std::max(1, static_cast<int>(requests) / clients);
  const auto cache_mb = static_cast<std::uint64_t>(opts.get_int("embed-cache-mb", 32));
  std::vector<LoadReport> embed_reports;
  double embed_hit_rate = 0;
  for (const bool cache_on : {false, true}) {
    EmbedWorkloadReport run =
        run_embed_cache_workload(dataset, server.snapshot(), serve_cfg,
                                 cache_on ? cache_mb << 20 : 0, zipf_bench_s,
                                 serve_cfg.sample_seed, clients, per_client);
    run.load.label = cache_on ? "zipf/cache" : "zipf/no-cache";
    embed_reports.push_back(std::move(run.load));
    if (cache_on) embed_hit_rate = run.hit_rate;
  }
  std::printf("%s\n", render_load_reports(embed_reports,
                                          "embedding cache (Zipf s=" +
                                              std::to_string(zipf_bench_s) + ")")
                          .c_str());
  std::printf("embed cache summary: hit_rate=%.3f QPS_on=%.0f QPS_off=%.0f "
              "p99_on_ms=%.3f p99_off_ms=%.3f\n",
              embed_hit_rate, embed_reports[1].qps, embed_reports[0].qps,
              embed_reports[1].p99_ms, embed_reports[0].p99_ms);

  // 7. Composed tier: both scaling axes at once — R ShardedServer replicas
  //    over P vertex-cut shards, fronted by the same Router policy and
  //    admission control, published through the broadcast wire path. A probe
  //    batch is checked bitwise against the single server's answers before
  //    the open-loop run.
  const int shards = std::max(1, static_cast<int>(opts.get_int("shards", 2)));
  const EdgePartition partition =
      partition_libra(dataset.graph.coo(), static_cast<part_t>(shards));
  ComposedConfig composed_cfg;
  composed_cfg.replicas = replicas;
  composed_cfg.policy = policy;
  composed_cfg.admission = admission;
  composed_cfg.shard.max_batch = serve_cfg.max_batch;
  composed_cfg.shard.fanouts = serve_cfg.fanouts;
  composed_cfg.shard.sample_seed = serve_cfg.sample_seed;
  composed_cfg.shard.trace_sample_rate = serve_cfg.trace_sample_rate;
  composed_cfg.shard.queue_capacity = serve_cfg.queue_capacity;
  composed_cfg.shard.prefetch_depth = 2;
  ComposedTier tier(dataset, partition, composed_cfg);
  tier.publish(server.snapshot());  // v2, through the broadcast wire path
  tier.start();
  std::printf("composed tier: %d replicas x %d shards (%d serving ranks), %s routing, "
              "grid version %llu\n",
              tier.num_replicas(), tier.num_shards(), tier.concurrency(),
              route_policy_name(policy).c_str(),
              static_cast<unsigned long long>(tier.version()));

  // Bitwise probe doubles as the warmup priming the service-rate estimate.
  const auto probed = tier.infer_batch(probe);
  bool match = true;
  for (std::size_t i = 0; i < probe.size(); ++i)
    match = match && probed[i].has_value() && probed[i]->logits == probe_expected[i];
  const RouterStats composed_warmed = tier.router().stats();

  const LoadReport composed = run_open_loop(load, tier, submit_to(tier.router()));
  tier.stop();

  std::printf("%s\n", render_load_reports(std::vector<LoadReport>{composed},
                                          "composed tier (replicated x sharded)")
                          .c_str());
  const RouterStats cstats = tier.router().stats().since(composed_warmed);
  std::printf("composed summary: QPS=%.0f p99_ms=%.3f p99_9_ms=%.3f shed_rate=%.3f match=%d\n",
              composed.qps, composed.p99_ms, composed.p999_ms, cstats.shed_rate(),
              match ? 1 : 0);

  // 8. Multi-tenant registry: three model families behind one front door,
  //    each with its own SLO, hot-swap lane, and token-bucket budget.
  //    Tenant A serves the trained v2 SAGE at its nominal rate while tenant
  //    B's GAT takes an MMPP overload ~4x its budget and tenant C answers
  //    relational (RGCN) queries — B's burst sheds at B's bucket, never A's.
  ModelRegistry registry;
  TenantSlo slo_a;
  slo_a.name = "alpha";
  const tenant_t tenant_a = registry.add_server(slo_a, dataset, serve_cfg);
  registry.publish(tenant_a, server.snapshot());

  TenantSlo slo_b;
  slo_b.name = "bravo";
  slo_b.rate_limit = arrivals.rate / 4;
  slo_b.burst = 32;
  const tenant_t tenant_b = registry.add_server(slo_b, dataset, serve_cfg);
  ModelSpec gat_spec = spec;
  gat_spec.kind = ModelKind::kGat;
  registry.publish(tenant_b, ModelSnapshot::random(gat_spec, /*seed=*/2, /*version=*/1));

  HeteroSbmParams hetero_params;
  hetero_params.num_vertices = 1024;
  hetero_params.num_edge_types = 3;
  hetero_params.feature_dim = 16;
  hetero_params.seed = 7;
  const Dataset hetero = make_hetero_dataset(hetero_params);
  TenantSlo slo_c;
  slo_c.name = "charlie";
  const tenant_t tenant_c = registry.add_server(slo_c, hetero, serve_cfg);
  ModelSpec rgcn_spec;
  rgcn_spec.kind = ModelKind::kRgcn;
  rgcn_spec.feature_dim = hetero.feature_dim();
  rgcn_spec.hidden_dim = 16;
  rgcn_spec.num_classes = hetero.num_classes;
  rgcn_spec.num_layers = train_cfg.num_layers;
  rgcn_spec.num_relations = hetero.num_edge_types;
  registry.publish(tenant_c, ModelSnapshot::random(rgcn_spec, /*seed=*/3, /*version=*/1));
  registry.start();
  std::printf("multi-tenant registry: %d tenants (alpha=SAGE bravo=GAT charlie=RGCN), "
              "bravo budget %.0f req/s\n",
              registry.num_models(), registry.slo(tenant_b).rate_limit);

  LoadStream stream_a;
  stream_a.tenant = tenant_a;
  stream_a.arrivals.process = ArrivalProcess::kPoisson;
  stream_a.arrivals.rate = arrivals.rate / 2;
  stream_a.arrivals.seed = serve_cfg.sample_seed;
  stream_a.num_requests = requests;
  stream_a.seed = serve_cfg.sample_seed;

  LoadStream stream_b;  // the bursty neighbour, offered well above budget
  stream_b.tenant = tenant_b;
  stream_b.arrivals.process = ArrivalProcess::kMmpp;
  stream_b.arrivals.mmpp_rate0 = arrivals.rate / 4;
  stream_b.arrivals.mmpp_rate1 = arrivals.rate * 2;
  stream_b.arrivals.seed = serve_cfg.sample_seed + 1;
  stream_b.num_requests = requests;
  stream_b.seed = serve_cfg.sample_seed + 1;

  LoadStream stream_c;  // light relational trickle
  stream_c.tenant = tenant_c;
  stream_c.arrivals.process = ArrivalProcess::kPoisson;
  stream_c.arrivals.rate = arrivals.rate / 10;
  stream_c.arrivals.seed = serve_cfg.sample_seed + 2;
  stream_c.num_requests = std::max<std::size_t>(16, requests / 8);
  stream_c.seed = serve_cfg.sample_seed + 2;

  // Health layer over the registry: background scrape into ring-buffer time
  // series, SRE dual-window burn-rate per tenant SLO, stall watchdog over
  // the counter triples. Transitions print as they happen; the summary line
  // lands after the run.
  obs::HealthMonitor health;
  registry.configure_health(health);
  health.on_event([](const obs::HealthEvent& event) {
    std::printf("health event: %s\n", event.detail.c_str());
  });
  health.start();

  const LoadStream streams[] = {stream_a, stream_b, stream_c};
  std::vector<LoadReport> tenant_reports = run_open_loop(
      streams, [&](tenant_t t) -> const ServingBackend& { return registry.backend(t); },
      submit_to(registry));
  for (std::size_t i = 0; i < tenant_reports.size(); ++i)
    tenant_reports[i].label = registry.slo(streams[i].tenant).name;
  const BackendStats reg_stats = registry.stats();
  health.stop();
  std::printf("%s\n", health.summary_line().c_str());
  registry.stop();

  std::printf("%s\n", render_load_reports(tenant_reports,
                                          "multi-tenant registry (A nominal + B burst + C)")
                          .c_str());
  const TenantCounters& lane_a = reg_stats.tenants[static_cast<std::size_t>(tenant_a)];
  const TenantCounters& lane_b = reg_stats.tenants[static_cast<std::size_t>(tenant_b)];
  const TenantCounters& lane_c = reg_stats.tenants[static_cast<std::size_t>(tenant_c)];
  std::printf("multitenant summary: tenants=%d A_qps=%.0f A_p99_ms=%.3f A_shed=%llu "
              "B_shed_rate=%.3f C_completed=%llu\n",
              registry.num_models(), tenant_reports[0].qps, tenant_reports[0].p99_ms,
              static_cast<unsigned long long>(lane_a.shed), lane_b.shed_rate(),
              static_cast<unsigned long long>(lane_c.completed));

  // 9. Stage breakdown straight from the registry scrape: the per-stage
  //    histograms the leaf servers recorded where the work happened. One
  //    scrape walks every tenant's tower; rows are (tenant, stage) pairs
  //    that saw samples.
  obs::MetricsSnapshot reg_scrape;
  registry.scrape(reg_scrape);
  TextTable stage_table({"tenant", "stage", "count", "p50_ms", "p99_ms"});
  for (tenant_t t = 0; t < static_cast<tenant_t>(registry.num_models()); ++t) {
    for (int s = 0; s < obs::kNumStages; ++s) {
      const auto stage = static_cast<obs::Stage>(s);
      const obs::Labels labels{{"stage", obs::stage_name(stage)},
                               {"tenant", std::to_string(t)}};
      const obs::MetricPoint* point = reg_scrape.find("distgnn_server_stage_seconds", labels);
      if (point == nullptr || point->histogram.empty()) continue;
      stage_table.add_row({registry.slo(t).name, obs::stage_name(stage),
                           TextTable::fmt_int(static_cast<long long>(point->histogram.count)),
                           TextTable::fmt(point->histogram.quantile(0.5) * 1e3),
                           TextTable::fmt(point->histogram.quantile(0.99) * 1e3)});
    }
  }
  std::printf("%s\n", stage_table.render("stage breakdown (registry scrape)").c_str());

  // 10. Exposition: one combined scrape (composed tier's router -> group ->
  //     sharded ranks, plus the registry's edge counters and leaf servers)
  //     rendered to Prometheus text, and the sampled request traces to
  //     Chrome trace_event JSON.
  obs::MetricsSnapshot scrape_all;
  tier.scrape(scrape_all);
  scrape_all.merge(reg_scrape);
  const std::string metrics_out = opts.get("metrics-out", "");
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    out << obs::render_prometheus(scrape_all);
    std::printf("metrics written: %s\n", metrics_out.c_str());
  }
  std::vector<obs::Trace> traces;
  tier.collect_traces(traces);
  registry.collect_traces(traces);
  const std::string trace_out = opts.get("trace-out", "");
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << obs::render_chrome_trace(traces);
    std::printf("traces written: %s\n", trace_out.c_str());
  }
  std::printf("observability summary: series=%zu traces=%zu router_completed=%.0f\n",
              scrape_all.points.size(), traces.size(),
              scrape_all.counter_total("distgnn_router_completed_total"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  try {
    opts.require_known({"vertices", "epochs", "workers", "batch", "delay-us", "arrival", "rate",
                        "requests", "clients", "seed", "checkpoint", "replicas", "policy",
                        "deadline-ms", "low-frac", "no-shed", "zipf-s", "embed-cache-mb",
                        "shards", "trace-rate", "metrics-out", "trace-out"});
    return run_demo(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_demo: %s\n", e.what());
    return 2;
  }
}
