// Streaming graph updates, end to end: start a server over a synthetic
// graph, accumulate live writes in a DeltaLog, seal them into epochs, and
// publish each sealed delta through the version barrier while open-loop
// read traffic keeps flowing — then prove freshness by checking a probe
// batch bitwise against a cold server built over the final graph.
//
//   ./stream_demo [--vertices=2048] [--deltas=16] [--write-rate=100]
//                 [--requests=1500] [--rate=2000] [--seed=1]
//
// Prints one line per published epoch (edge/feature counts, dirty-set size
// vs the full-flush equivalent), the mixed-loop summary (read QPS and tails
// alongside apply-latency quantiles), the freshness verdict, and the
// distgnn_stream_* counter scrape.
#include <cstdio>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/expose.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/traffic_gen.hpp"
#include "stream/delta_publisher.hpp"
#include "stream/graph_delta.hpp"
#include "stream/mixed_loop.hpp"
#include "util/options.hpp"

namespace {

using namespace distgnn;
using namespace distgnn::serve;
using namespace distgnn::stream;

Dataset rebuild_final(const Dataset& base, const std::vector<GraphDelta>& deltas) {
  Dataset cold = base;
  for (const GraphDelta& delta : deltas) apply_delta(cold, delta);
  return cold;
}

}  // namespace

int main(int argc, char** argv) {
  long long vertices = 2048, num_deltas = 16, requests = 1500, seed = 1;
  double write_rate = 100.0, read_rate = 2000.0;
  try {
    const Options opts(argc, argv);
    opts.require_known({"vertices", "deltas", "write-rate", "requests", "rate", "seed"});
    vertices = opts.get_int("vertices", vertices);
    num_deltas = opts.get_int("deltas", num_deltas);
    write_rate = opts.get_double("write-rate", write_rate);
    requests = opts.get_int("requests", requests);
    read_rate = opts.get_double("rate", read_rate);
    seed = opts.get_int("seed", seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stream_demo: %s\n", e.what());
    return 2;
  }

  LearnableSbmParams params;
  params.num_vertices = static_cast<vid_t>(vertices);
  params.num_classes = 8;
  params.avg_degree = 16;
  params.feature_dim = 32;
  params.seed = 9;
  const Dataset base = make_learnable_sbm(params);

  ModelSpec spec;
  spec.kind = ModelKind::kSage;
  spec.feature_dim = base.feature_dim();
  spec.hidden_dim = 32;
  spec.num_classes = base.num_classes;
  spec.num_layers = 2;
  const auto snapshot = ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1);

  Dataset live_data = base;
  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 16;
  cfg.fanouts = {10, 10};
  InferenceServer server(live_data, cfg);
  server.publish(snapshot);
  server.start();
  DeltaPublisher publisher(live_data, server);

  // Lifecycle 1/3 — log -> seal -> publish, one epoch at a time. The DeltaLog
  // is where writers would land in production; seal() snapshots the pending
  // writes into a numbered delta and resets the log.
  std::printf("== log -> seal -> publish ==\n");
  DeltaLog log;
  Rng rng(static_cast<std::uint64_t>(seed) ^ 0xfeedULL);
  const auto n = static_cast<std::uint64_t>(base.num_vertices());
  for (int round = 0; round < 3; ++round) {
    for (int w = 0; w < 4; ++w) {
      // Draw src before dst in sequenced statements — the freshness replay
      // below re-draws the same stream and must agree on the order.
      const auto src = static_cast<vid_t>(rng.next_below(n));
      const auto dst = static_cast<vid_t>(rng.next_below(n));
      log.insert_edge(src, dst);
    }
    std::vector<real_t> row(static_cast<std::size_t>(base.feature_dim()), 0.25f);
    log.update_feature(static_cast<vid_t>(rng.next_below(n)), row);
    const GraphDelta delta = log.seal();
    const std::uint64_t epoch = publisher.publish(delta);
    std::printf("  epoch %llu: +%zu edges, %zu feature rows, served epoch now %llu\n",
                static_cast<unsigned long long>(delta.epoch), delta.edge_inserts.size(),
                delta.feature_updates.size(), static_cast<unsigned long long>(epoch));
  }

  // Lifecycle 2/3 — a sustained write stream racing open-loop reads.
  std::printf("== mixed read+write loop ==\n");
  DeltaStreamConfig stream_cfg;
  stream_cfg.num_deltas = static_cast<std::size_t>(num_deltas);
  stream_cfg.seed = static_cast<std::uint64_t>(seed) + 11;
  const std::vector<GraphDelta> stream = make_delta_stream(live_data, stream_cfg);
  std::vector<GraphDelta> replay = stream;
  for (std::size_t d = 0; d < replay.size(); ++d) replay[d].epoch = 0;  // publisher stamps

  MixedLoopConfig mixed;
  mixed.reads.arrivals.process = ArrivalProcess::kPoisson;
  mixed.reads.arrivals.rate = read_rate;
  mixed.reads.arrivals.seed = static_cast<std::uint64_t>(seed);
  mixed.reads.num_requests = static_cast<std::size_t>(requests);
  mixed.reads.seed = static_cast<std::uint64_t>(seed);
  mixed.writes.process = ArrivalProcess::kMmpp;
  mixed.writes.rate = write_rate;
  mixed.writes.mmpp_rate0 = write_rate * 0.25;
  mixed.writes.mmpp_rate1 = write_rate * 4.0;
  mixed.writes.seed = static_cast<std::uint64_t>(seed) + 3;
  // Health layer over the write path: the publisher as a scrape source plus
  // the graph-epoch freshness probe (served epoch vs the log's sealed head).
  obs::HealthMonitor health;
  publisher.configure_health(health, log);
  health.on_event([](const obs::HealthEvent& event) {
    std::printf("health event: %s\n", event.detail.c_str());
  });
  health.start();
  const MixedLoopReport report = run_mixed_open_loop(server, publisher, replay, mixed);
  health.stop();
  std::printf("  %s\n", health.summary_line().c_str());
  const StreamStats stats = publisher.stats();
  std::printf(
      "  reads: %llu done, %.0f qps, p50 %.2fms p99 %.2fms | applies: p50 %.2fms p99 %.2fms\n",
      static_cast<unsigned long long>(report.reads.completed), report.reads.qps,
      report.reads.p50_ms, report.reads.p99_ms, report.apply_p50_ms, report.apply_p99_ms);
  std::printf("  %llu deltas -> epoch %llu; dirty entries %llu vs full-flush %llu (%.1f%%)\n",
              static_cast<unsigned long long>(stats.deltas_published),
              static_cast<unsigned long long>(report.final_epoch),
              static_cast<unsigned long long>(stats.dirty_entries),
              static_cast<unsigned long long>(stats.full_flush_equivalent),
              100.0 * static_cast<double>(stats.dirty_entries) /
                  static_cast<double>(stats.full_flush_equivalent ? stats.full_flush_equivalent
                                                                  : 1));

  // Lifecycle 3/3 — freshness: the streamed server vs a cold rebuild.
  Dataset final_data = base;
  {
    Dataset tmp = base;
    // The three hand-rolled epochs, replayed canonically from the same seed.
    Rng replay_rng(static_cast<std::uint64_t>(seed) ^ 0xfeedULL);
    for (int round = 0; round < 3; ++round) {
      GraphDelta delta;
      for (int w = 0; w < 4; ++w) {
        const auto src = static_cast<vid_t>(replay_rng.next_below(n));
        const auto dst = static_cast<vid_t>(replay_rng.next_below(n));
        delta.edge_inserts.push_back({src, dst, 0});
      }
      FeatureUpdate fu;
      fu.vertex = static_cast<vid_t>(replay_rng.next_below(n));
      fu.row.assign(static_cast<std::size_t>(base.feature_dim()), 0.25f);
      delta.feature_updates.push_back(fu);
      apply_delta(tmp, delta);
    }
    final_data = rebuild_final(tmp, stream);
  }
  InferenceServer cold(final_data, cfg);
  cold.publish(snapshot);
  cold.start();
  int mismatches = 0;
  for (vid_t i = 0; i < 32; ++i) {
    const vid_t v = (i * 61) % static_cast<vid_t>(n);
    if (server.infer_sync(v).logits != cold.infer_sync(v).logits) ++mismatches;
  }
  std::printf("== freshness probe: %s (%d/32 mismatches) ==\n",
              mismatches == 0 ? "bitwise-equal" : "MISMATCH", mismatches);
  cold.stop();

  obs::MetricsSnapshot scrape;
  publisher.scrape(scrape);
  std::printf("%s", obs::render_prometheus(scrape).c_str());
  server.stop();
  return mismatches == 0 ? 0 : 1;
}
