#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/expose.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape.hpp"
#include "obs/trace.hpp"
#include "partition/libra.hpp"
#include "serve/composed_tier.hpp"
#include "serve/inference_server.hpp"
#include "serve/model_registry.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/replica_group.hpp"
#include "serve/traffic_gen.hpp"

namespace distgnn {
namespace {

using namespace distgnn::serve;

// ---------------------------------------------------------------------------
// Histogram bucket geometry

TEST(ObsMetrics, BucketEdges) {
  // Bucket 0 holds everything below 1µs (and junk inputs).
  EXPECT_EQ(obs::latency_bucket(0.0), 0);
  EXPECT_EQ(obs::latency_bucket(-1.0), 0);
  EXPECT_EQ(obs::latency_bucket(5e-7), 0);
  // Bucket k covers [1µs·2^(k-1), 1µs·2^k): edges land in the upper bucket.
  EXPECT_EQ(obs::latency_bucket(1e-6), 1);
  EXPECT_EQ(obs::latency_bucket(1.5e-6), 1);
  EXPECT_EQ(obs::latency_bucket(2e-6), 2);
  EXPECT_EQ(obs::latency_bucket(1e-3), 10);      // 1000µs in [512µs, 1024µs)
  EXPECT_EQ(obs::latency_bucket(1.024e-3), 11);  // the edge opens bucket 11
  EXPECT_EQ(obs::latency_bucket(1.1e-3), 11);
  // Every bucket's upper bound maps back to the next bucket, and anything
  // just below stays put — the bidirectional rounding guard.
  for (int k = 1; k < obs::kNumBuckets - 1; ++k) {
    const double upper = obs::bucket_upper_seconds(k);
    EXPECT_EQ(obs::latency_bucket(upper), k + 1) << "k=" << k;
    EXPECT_EQ(obs::latency_bucket(upper * 0.999), k) << "k=" << k;
  }
  // Clamped at the top.
  EXPECT_EQ(obs::latency_bucket(1e9), obs::kNumBuckets - 1);
}

TEST(ObsMetrics, HistogramQuantileWithinBucketFactor) {
  obs::MetricsRegistry registry(2);
  obs::Histogram& h = registry.histogram("h");
  for (int i = 0; i < 1000; ++i) h.observe(1e-3);  // all in one bucket
  const obs::HistogramData data = h.snapshot();
  EXPECT_EQ(data.count, 1000u);
  // Log2 buckets: the estimate is within sqrt(2) of the true value.
  EXPECT_GE(data.quantile(0.5), 1e-3 / std::sqrt(2.0) * 0.99);
  EXPECT_LE(data.quantile(0.5), 1e-3 * std::sqrt(2.0) * 1.01);
  EXPECT_NEAR(data.mean_seconds(), 1e-3, 1e-5);
}

// ---------------------------------------------------------------------------
// Sharded registry: wait-free writers, fold on scrape

TEST(ObsMetrics, ConcurrentShardFoldMatchesSerialCount) {
  obs::MetricsRegistry registry(8);
  obs::Counter& counter = registry.counter("distgnn_test_total");
  obs::Histogram& hist = registry.histogram("distgnn_test_seconds");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add();
        hist.observe(1e-4);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const obs::HistogramData data = hist.snapshot();
  EXPECT_EQ(data.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_sum = 0;
  for (const std::uint64_t b : data.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, data.count);
}

TEST(ObsMetrics, SnapshotFoldsDuplicateSeries) {
  obs::MetricsSnapshot snap;
  snap.add_counter("c", {{"tenant", "0"}}, 3);
  snap.add_counter("c", {{"tenant", "0"}}, 4);  // same series: folds
  snap.add_counter("c", {{"tenant", "1"}}, 5);  // different labels: new point
  EXPECT_EQ(snap.points.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.find("c", {{"tenant", "0"}})->value, 7);
  EXPECT_DOUBLE_EQ(snap.counter_total("c"), 12);
}

// ---------------------------------------------------------------------------
// Trace sampling + span structure

TEST(ObsTrace, SamplingRateHonored) {
  EXPECT_FALSE(obs::trace_sampled(123, 0, 0.0));
  EXPECT_TRUE(obs::trace_sampled(123, 0, 1.0));
  // Deterministic: the same (id, tenant) always answers the same.
  for (std::uint64_t id = 0; id < 64; ++id)
    EXPECT_EQ(obs::trace_sampled(id, 3, 0.5), obs::trace_sampled(id, 3, 0.5));
  // Statistically honest: a rate-r fraction of ids is sampled (splitmix64
  // mixes well, so 20k ids land within a few percent).
  for (const double rate : {0.1, 0.5, 0.9}) {
    int hits = 0;
    constexpr int kIds = 20000;
    for (std::uint64_t id = 0; id < kIds; ++id)
      if (obs::trace_sampled(id, 1, rate)) ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / kIds, rate, 0.02) << "rate=" << rate;
  }
}

TEST(ObsTrace, SinkRingBoundedAndTopK) {
  obs::TraceSink sink(/*ring_capacity=*/8, /*top_k=*/2);
  for (int i = 0; i < 32; ++i) {
    obs::Trace t;
    t.request_id = static_cast<std::uint64_t>(i);
    t.begin_seconds = 0;
    t.end_seconds = 1e-3 * (i % 7 + 1);  // ids 5,6,12,13,... are slowest
    sink.publish(t);
  }
  EXPECT_EQ(sink.published(), 32u);
  EXPECT_LE(sink.ring_snapshot().size(), 8u);
  const std::vector<obs::Trace> slow = sink.slowest();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_DOUBLE_EQ(slow[0].total_seconds(), 7e-3);
  EXPECT_GE(slow[0].total_seconds(), slow[1].total_seconds());
  // collect = ring + non-resident exemplars, deduplicated.
  std::vector<obs::Trace> all;
  sink.collect(all);
  EXPECT_GE(all.size(), 8u);
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      EXPECT_FALSE(all[i].request_id == all[j].request_id);
}

// Drives a real server at 100% sampling and checks every collected trace:
// stages are ordered, nested inside [begin, end], and the spans cover >= 90%
// of the measured end-to-end latency (the "stamped where the work happens"
// acceptance bar — a reconstructed-at-the-edge trace could not pass it).
TEST(ObsTrace, ServerTracesOrderedAndCoverLatency) {
  LearnableSbmParams params;
  params.num_vertices = 256;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  const Dataset dataset = make_learnable_sbm(params);
  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;

  ServeConfig cfg;
  cfg.num_workers = 2;
  cfg.max_batch = 8;
  cfg.fanouts = {4, 4};
  cfg.trace_sample_rate = 1.0;
  InferenceServer server(dataset, cfg);
  server.publish(ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1));
  server.start();
  TrafficGenerator traffic(server, /*seed=*/3);
  (void)traffic.run_closed_loop(/*num_clients=*/4, /*requests_each=*/25);
  server.drain();

  std::vector<obs::Trace> traces;
  server.collect_traces(traces);
  ASSERT_FALSE(traces.empty());
  constexpr double kEps = 1e-9;
  for (const obs::Trace& t : traces) {
    const obs::Span& admit = t.span(obs::Stage::kAdmit);
    const obs::Span& queue = t.span(obs::Stage::kQueue);
    const obs::Span& sample = t.span(obs::Stage::kSample);
    const obs::Span& forward = t.span(obs::Stage::kForward);
    const obs::Span& reply = t.span(obs::Stage::kReply);
    ASSERT_TRUE(admit.valid() && queue.valid() && sample.valid() && forward.valid() &&
                reply.valid());
    // Ordered and contiguous by construction: admit ends where queue begins,
    // queue ends at the worker pop where the batch sample window begins.
    EXPECT_GE(admit.begin_seconds, t.begin_seconds - kEps);
    EXPECT_GE(queue.begin_seconds, admit.end_seconds - kEps);
    EXPECT_GE(sample.begin_seconds, queue.end_seconds - kEps);
    EXPECT_GE(forward.begin_seconds, sample.end_seconds - kEps);
    EXPECT_GE(reply.end_seconds, reply.begin_seconds - kEps);
    EXPECT_LE(reply.end_seconds, t.end_seconds + kEps);
    // The single-server classic path never waits on halos or embed lookups.
    EXPECT_FALSE(t.span(obs::Stage::kHaloWait).valid());
    EXPECT_FALSE(t.span(obs::Stage::kEmbedLookup).valid());
    EXPECT_GE(t.coverage(), 0.9) << "request " << t.request_id;
  }

  // Sub-sampling: a 30% rate traces roughly (deterministically, not exactly)
  // 30% of requests, and never more than all of them.
  cfg.trace_sample_rate = 0.3;
  InferenceServer sampled(dataset, cfg);
  sampled.publish(ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1));
  sampled.start();
  TrafficGenerator traffic2(sampled, /*seed=*/4);
  (void)traffic2.run_closed_loop(/*num_clients=*/4, /*requests_each=*/50);
  sampled.drain();
  const double frac =
      static_cast<double>(sampled.trace_sink().published()) / 200.0;
  EXPECT_GT(frac, 0.1);
  EXPECT_LT(frac, 0.6);
  sampled.stop();
  server.stop();
}

// ---------------------------------------------------------------------------
// Exposition round-trip

TEST(ObsExpose, PrometheusRoundTrip) {
  obs::MetricsRegistry registry(4);
  registry.counter("distgnn_test_requests_total", {{"tenant", "0"}}).add(41);
  registry.counter("distgnn_test_requests_total", {{"tenant", "1"}}).add(7);
  obs::Histogram& h =
      registry.histogram("distgnn_test_latency_seconds", {{"stage", "forward"}});
  h.observe(1e-4);
  h.observe(2.5e-4);
  h.observe(3e-3);

  obs::MetricsSnapshot snap;
  registry.scrape(snap);
  const std::string text = obs::render_prometheus(snap);
  EXPECT_NE(text.find("# TYPE distgnn_test_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("distgnn_test_requests_total{tenant=\"0\"} 41"), std::string::npos);
  EXPECT_NE(text.find("_bucket{stage=\"forward\",le=\"+Inf\"} 3"), std::string::npos);

  const obs::MetricsSnapshot parsed = obs::parse_prometheus(text);
  const obs::MetricPoint* c0 = parsed.find("distgnn_test_requests_total", {{"tenant", "0"}});
  ASSERT_NE(c0, nullptr);
  EXPECT_DOUBLE_EQ(c0->value, 41);
  EXPECT_DOUBLE_EQ(parsed.counter_total("distgnn_test_requests_total"), 48);
  const obs::MetricPoint* ph =
      parsed.find("distgnn_test_latency_seconds", {{"stage", "forward"}});
  ASSERT_NE(ph, nullptr);
  ASSERT_TRUE(ph->is_histogram);
  const obs::HistogramData& original =
      snap.find("distgnn_test_latency_seconds", {{"stage", "forward"}})->histogram;
  EXPECT_EQ(ph->histogram.count, original.count);
  EXPECT_EQ(ph->histogram.buckets, original.buckets);
  EXPECT_NEAR(ph->histogram.sum_seconds, original.sum_seconds, 1e-12);
}

TEST(ObsExpose, ChromeTraceContainsStageEvents) {
  obs::Trace t;
  t.request_id = 9;
  t.tenant = 2;
  t.begin_seconds = 10.0;
  t.end_seconds = 10.01;
  t.spans[static_cast<std::size_t>(obs::Stage::kQueue)] = obs::Span{10.0, 10.004};
  t.spans[static_cast<std::size_t>(obs::Stage::kForward)] = obs::Span{10.004, 10.009};
  const obs::Trace traces[] = {t};
  const std::string json = obs::render_chrome_trace(traces);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"forward\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":2"), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"admit\""), std::string::npos);  // span never ran
}

TEST(ObsExpose, ChromeTraceStreamTrack) {
  // A delta-publication trace rides the kStreamTrack pseudo-tenant: its own
  // process track named "stream", cat "stream", and args keyed by epoch.
  obs::Trace t;
  t.request_id = 7;  // the epoch
  t.tenant = obs::kStreamTrack;
  t.begin_seconds = 5.0;
  t.end_seconds = 5.02;
  t.spans[static_cast<std::size_t>(obs::Stage::kRepartition)] = obs::Span{5.0, 5.012};
  t.spans[static_cast<std::size_t>(obs::Stage::kApply)] = obs::Span{5.012, 5.015};
  t.spans[static_cast<std::size_t>(obs::Stage::kInvalidate)] = obs::Span{5.015, 5.02};
  const obs::Trace traces[] = {t};
  const std::string json = obs::render_chrome_trace(traces);
  EXPECT_NE(json.find("\"args\":{\"name\":\"stream\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"repartition\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"apply\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"invalidate\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"stream\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":7"), std::string::npos);
  EXPECT_EQ(json.find("\"vertex\""), std::string::npos);
  EXPECT_EQ(json.find("tenant -1"), std::string::npos);
}

TEST(ObsExpose, ChromeTraceMixedServeAndStreamTracks) {
  obs::Trace request;
  request.request_id = 3;
  request.tenant = 0;
  request.vertex = 42;
  request.begin_seconds = 1.0;
  request.end_seconds = 1.01;
  request.spans[static_cast<std::size_t>(obs::Stage::kForward)] = obs::Span{1.0, 1.01};
  obs::Trace delta;
  delta.request_id = 2;
  delta.tenant = obs::kStreamTrack;
  delta.begin_seconds = 1.002;
  delta.end_seconds = 1.008;
  delta.spans[static_cast<std::size_t>(obs::Stage::kApply)] = obs::Span{1.002, 1.008};
  const obs::Trace traces[] = {request, delta};
  const std::string json = obs::render_chrome_trace(traces);
  EXPECT_NE(json.find("\"args\":{\"name\":\"tenant 0\"}"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"stream\"}"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"serve\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"stream\""), std::string::npos);
  EXPECT_NE(json.find("\"vertex\":42"), std::string::npos);
  EXPECT_NE(json.find("\"epoch\":2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Quantile edge cases (empty / all-zero histograms stay defined)

TEST(ObsMetrics, QuantileDefinedOnDegenerateHistograms) {
  // Empty histogram: no samples at all.
  obs::HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.99), 0.0);
  // All-zero durations land in bucket 0 and must not walk off the table.
  obs::MetricsRegistry registry(2);
  obs::Histogram& h = registry.histogram("distgnn_test_zero_seconds", {});
  h.observe(0.0);
  h.observe(0.0);
  h.observe(-1.0);  // junk input also folds into bucket 0
  obs::MetricsSnapshot snap;
  registry.scrape(snap);
  const obs::MetricPoint* p = snap.find("distgnn_test_zero_seconds", {});
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->histogram.count, 3u);
  const double q99 = p->histogram.quantile(0.99);
  EXPECT_GE(q99, 0.0);
  EXPECT_LE(q99, obs::bucket_upper_seconds(0));
  // Count inflated beyond the bucket sum (possible when merging partially
  // scraped shards) must clamp to the last populated bucket, not run off
  // the end of the table.
  obs::HistogramData skewed;
  skewed.buckets[3] = 1;
  skewed.count = 100;
  EXPECT_LE(skewed.quantile(0.999), obs::bucket_upper_seconds(3));
  EXPECT_GT(skewed.quantile(0.999), 0.0);
}

TEST(ObsMetrics, SnapshotQuantileLookup) {
  obs::MetricsRegistry registry(2);
  obs::Histogram& h = registry.histogram("distgnn_test_lat_seconds", {{"stage", "forward"}});
  for (int i = 0; i < 100; ++i) h.observe(1e-3);
  obs::MetricsSnapshot snap;
  registry.scrape(snap);
  const double q = snap.quantile("distgnn_test_lat_seconds", 0.5, {{"stage", "forward"}});
  EXPECT_GT(q, 0.5e-3 / std::sqrt(2.0));
  EXPECT_LE(q, 1.024e-3);
  // Empty labels folds every series of that name.
  const double qall = snap.quantile("distgnn_test_lat_seconds", 0.5);
  EXPECT_DOUBLE_EQ(qall, q);
  // Unknown series: defined zero, not a throw.
  EXPECT_DOUBLE_EQ(snap.quantile("distgnn_test_absent_seconds", 0.99), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile("distgnn_test_lat_seconds", 0.5, {{"stage", "nope"}}), 0.0);
}

// ---------------------------------------------------------------------------
// parse_prometheus rejection paths

TEST(ObsExpose, ParseRejectsBadLabelEscaping) {
  // Dangling backslash at end of a label value.
  EXPECT_THROW(obs::parse_prometheus("m{l=\"a\\"), std::runtime_error);
  // Unsupported escape sequence.
  EXPECT_THROW(obs::parse_prometheus("m{l=\"a\\t\"} 1\n"), std::runtime_error);
  // Empty label name.
  EXPECT_THROW(obs::parse_prometheus("m{=\"v\"} 1\n"), std::runtime_error);
  // Unterminated label block.
  EXPECT_THROW(obs::parse_prometheus("m{l=\"v\" 1\n"), std::runtime_error);
}

TEST(ObsExpose, ParseRejectsNonNumericValue) {
  EXPECT_THROW(obs::parse_prometheus("distgnn_x_total 12abc\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_prometheus("distgnn_x_total notanumber\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_prometheus("distgnn_x_total\n"), std::runtime_error);
  // Valid exotic numerics must still pass.
  const obs::MetricsSnapshot inf_ok = obs::parse_prometheus("distgnn_x_total +Inf\n");
  const obs::MetricPoint* p = inf_ok.find("distgnn_x_total", {});
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(std::isinf(p->value));
}

TEST(ObsExpose, ParseRejectsTruncatedComments) {
  EXPECT_THROW(obs::parse_prometheus("# TYPE\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_prometheus("# TYPE distgnn_x_total\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_prometheus("# TYPE distgnn_x_total bogus\n"), std::runtime_error);
  EXPECT_THROW(obs::parse_prometheus("# HELP\n"), std::runtime_error);
  // Non-directive comments stay ignorable.
  const obs::MetricsSnapshot ok = obs::parse_prometheus("# scraped by distgnn\nm_total 1\n");
  EXPECT_NE(ok.find("m_total", {}), nullptr);
}

// ---------------------------------------------------------------------------
// LatencyRecorder folding

TEST(ObsLatencyRecorder, FoldMergesSamples) {
  LatencyRecorder a, b;
  a.record(1e-3);
  a.record(2e-3);
  b.record(3e-3);
  b.record(4e-3);
  a += b;
  EXPECT_EQ(a.count(), 4u);
  EXPECT_NEAR(a.mean_seconds(), 2.5e-3, 1e-9);
  EXPECT_EQ(b.count(), 2u);  // source unchanged
  a += a;                    // self-fold is a no-op, not a double
  EXPECT_EQ(a.count(), 4u);
  // Histogram buckets share the obs geometry.
  const auto buckets = a.histogram();
  ASSERT_FALSE(buckets.empty());
  std::size_t total = 0;
  for (const auto& bucket : buckets) {
    EXPECT_DOUBLE_EQ(bucket.upper_seconds,
                     obs::bucket_upper_seconds(obs::latency_bucket(bucket.upper_seconds * 0.99)));
    total += bucket.count;
  }
  EXPECT_EQ(total, 4u);
}

// ---------------------------------------------------------------------------
// Tenant-lane fold consistency, asserted on one scrape: sibling replicas'
// leaf series merge by (name, labels), so the scrape itself is the leaves'
// fold, and the registry edge is checked against it.

double series_value(const obs::MetricsSnapshot& snap, const std::string& name,
                    const obs::Labels& labels) {
  const obs::MetricPoint* point = snap.find(name, labels);
  return point == nullptr ? 0.0 : point->value;
}

TEST(ObsTenantFold, LiveReplicaGroupsFoldIntoTheRegistryEdge) {
  LearnableSbmParams params;
  params.num_vertices = 256;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  const Dataset dataset = make_learnable_sbm(params);
  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;

  // Two tenants, each a 2-replica group. Small queues let leaves bounce;
  // tenant 1's budget sheds at the edge before any leaf sees the request.
  ServeConfig cfg;
  cfg.num_workers = 1;
  cfg.max_batch = 4;
  cfg.fanouts = {4, 4};
  cfg.queue_capacity = 2;
  TenantSlo open;
  open.name = "open";
  TenantSlo budgeted = open;
  budgeted.name = "budgeted";
  budgeted.rate_limit = 1;
  budgeted.burst = 8;
  ModelRegistry registry;
  for (const TenantSlo& slo : {open, budgeted}) {
    const tenant_t t =
        registry.add(slo, std::make_unique<ReplicaGroup>(dataset, cfg, /*replicas=*/2));
    registry.publish(t, ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1));
  }
  registry.start();
  for (tenant_t t = 0; t < registry.num_models(); ++t)
    for (vid_t v = 0; v < 40; ++v) (void)registry.submit(t, (v * 7) % 256, nullptr);
  for (tenant_t t = 0; t < registry.num_models(); ++t) registry.backend(t).drain();
  const obs::MetricsSnapshot snap = registry.scrape_snapshot();
  registry.stop();

  for (tenant_t t = 0; t < registry.num_models(); ++t) {
    const obs::Labels labels{{"tenant", std::to_string(t)}};
    const auto edge = [&](const char* what) {
      return series_value(snap, std::string("distgnn_registry_") + what + "_total", labels);
    };
    const auto leaves = [&](const char* what) {
      return series_value(snap, std::string("distgnn_server_") + what + "_total", labels);
    };
    EXPECT_EQ(edge("submitted"), 40.0) << "tenant " << t;
    EXPECT_GT(edge("completed"), 0.0) << "tenant " << t;
    // Every admitted request is answered exactly once below the edge...
    EXPECT_EQ(edge("completed"), leaves("completed")) << "tenant " << t;
    // ...and the edge sees everything its leaves see, plus its own sheds.
    EXPECT_GE(edge("submitted"), leaves("submitted")) << "tenant " << t;
    EXPECT_GE(edge("shed"), leaves("shed")) << "tenant " << t;
    EXPECT_EQ(edge("submitted"), edge("completed") + edge("shed")) << "tenant " << t;
  }
  // The budget really shed at the edge only.
  const obs::Labels tenant1{{"tenant", "1"}};
  EXPECT_GT(series_value(snap, "distgnn_registry_shed_total", tenant1),
            series_value(snap, "distgnn_server_shed_total", tenant1));
}

// ---------------------------------------------------------------------------
// The health engine's stall watchdog folds every layer's _submitted_total,
// _completed_total and _shed_total series and assumes each layer balances to
// its in-flight count. Drained, with sheds forced at the Router's stage, the
// fold over one scrape is zero.

TEST(ObsScrape, DrainedRegistryOverComposedTierBalances) {
  LearnableSbmParams params;
  params.num_vertices = 256;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  const Dataset dataset = make_learnable_sbm(params);
  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;
  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);

  ComposedConfig cfg;
  cfg.replicas = 2;
  cfg.shard.max_batch = 4;
  cfg.shard.fanouts = {4, 4};
  TenantSlo slo;
  slo.name = "tier";
  slo.stage_capacity = 1;
  cfg.admission.tenants = {slo};
  cfg.admission.dispatch_window = 1;
  ModelRegistry registry;
  const tenant_t t = registry.add(slo, std::make_unique<ComposedTier>(dataset, partition, cfg));
  registry.publish(t, ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1));
  registry.start();
  std::vector<vid_t> vertices;
  for (vid_t v = 0; v < 200; ++v) vertices.push_back((v * 7) % 256);
  for (const vid_t v : vertices) (void)registry.submit(t, v, nullptr);
  (void)registry.infer_batch(t, vertices);
  registry.backend(t).drain();
  const obs::MetricsSnapshot snap = registry.scrape_snapshot();
  registry.stop();

  const auto fold = [&](const std::string& suffix) {
    double total = 0;
    for (const obs::MetricPoint& p : snap.points)
      if (!p.is_histogram && p.name.size() >= suffix.size() &&
          p.name.compare(p.name.size() - suffix.size(), suffix.size(), suffix) == 0)
        total += p.value;
    return total;
  };
  const double submitted = fold("_submitted_total");
  const double completed = fold("_completed_total");
  const double shed = fold("_shed_total");
  EXPECT_GT(shed, 0.0);
  EXPECT_GT(completed, 0.0);
  EXPECT_EQ(submitted - completed - shed, 0.0)
      << submitted << " - " << completed << " - " << shed;
}

// ---------------------------------------------------------------------------
// A registry stamps its entry index as the tenant id, so the second entry's
// tier sees tenant 1. A tier without configured tenants runs one lane that
// serves any id, and its Router books the request under that id.

TEST(ObsScrape, UnconfiguredTiersCountTheRegistrysTenantIds) {
  LearnableSbmParams params;
  params.num_vertices = 256;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  const Dataset dataset = make_learnable_sbm(params);
  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;
  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);

  ModelRegistry registry;
  for (const char* name : {"alpha", "bravo"}) {
    ComposedConfig cfg;
    cfg.replicas = 2;
    cfg.shard.max_batch = 4;
    cfg.shard.fanouts = {4, 4};
    TenantSlo slo;
    slo.name = name;
    const tenant_t t =
        registry.add(slo, std::make_unique<ComposedTier>(dataset, partition, cfg));
    registry.publish(t, ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1));
  }
  registry.start();
  const std::vector<vid_t> vertices{3, 17, 42, 99, 200};
  for (const auto& result : registry.infer_batch(/*tenant=*/1, vertices))
    EXPECT_TRUE(result.has_value());
  registry.backend(1).drain();
  const obs::MetricsSnapshot snap = registry.scrape_snapshot();
  const BackendStats stats = registry.backend(1).stats();
  registry.stop();

  const obs::Labels tenant1{{"tenant", "1"}};
  const auto n = static_cast<double>(vertices.size());
  EXPECT_EQ(series_value(snap, "distgnn_router_tenant_submitted_total", tenant1), n);
  EXPECT_EQ(series_value(snap, "distgnn_router_tenant_completed_total", tenant1), n);
  EXPECT_EQ(series_value(snap, "distgnn_router_tenant_shed_total", tenant1), 0.0);
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants[0].tenant, 1);
  EXPECT_EQ(stats.tenants[0].completed, vertices.size());
}

// ---------------------------------------------------------------------------
// The acceptance walk: one scrape of a ModelRegistry whose tenants sit on an
// R x P ComposedTier yields per-tenant stage histograms — admit, queue,
// sample, halo_wait, forward — in valid Prometheus text.

TEST(ObsScrape, RegistryOverComposedTierExposesAllStages) {
  LearnableSbmParams params;
  params.num_vertices = 256;
  params.num_classes = 4;
  params.avg_degree = 8;
  params.feature_dim = 16;
  params.seed = 5;
  const Dataset dataset = make_learnable_sbm(params);
  ModelSpec spec;
  spec.feature_dim = dataset.feature_dim();
  spec.hidden_dim = 16;
  spec.num_classes = dataset.num_classes;
  spec.num_layers = 2;
  const auto snapshot = ModelSnapshot::random(spec, /*seed=*/1, /*version=*/1);
  const EdgePartition partition = partition_libra(dataset.graph.coo(), /*num_parts=*/2);

  ModelRegistry registry;
  std::vector<tenant_t> tenants;
  for (const char* name : {"alpha", "bravo"}) {
    ComposedConfig cfg;
    cfg.replicas = 2;
    cfg.shard.max_batch = 4;
    cfg.shard.fanouts = {4, 4};
    cfg.shard.trace_sample_rate = 1.0;
    TenantSlo slo;
    slo.name = name;
    tenants.push_back(
        registry.add(slo, std::make_unique<ComposedTier>(dataset, partition, cfg)));
  }
  for (const tenant_t t : tenants) registry.publish(t, snapshot);
  registry.start();

  std::vector<vid_t> vertices;
  for (vid_t v = 0; v < 32; ++v) vertices.push_back((v * 7) % 256);
  for (const tenant_t t : tenants) {
    const auto results = registry.infer_batch(t, vertices);
    for (const auto& r : results) EXPECT_TRUE(r.has_value());
  }
  for (const tenant_t t : tenants) registry.backend(t).drain();

  // One scrape walks every tenant's tower down to the sharded ranks.
  obs::MetricsSnapshot snap;
  registry.scrape(snap);
  registry.stop();

  for (const tenant_t t : tenants) {
    const std::string id = std::to_string(t);
    EXPECT_GE(snap.find("distgnn_registry_completed_total", {{"tenant", id}})->value, 32.0);
    for (const char* stage : {"admit", "queue", "sample", "halo_wait", "forward"}) {
      const obs::MetricPoint* point =
          snap.find("distgnn_sharded_stage_seconds", {{"stage", stage}, {"tenant", id}});
      ASSERT_NE(point, nullptr) << "stage=" << stage << " tenant=" << id;
      EXPECT_FALSE(point->histogram.empty()) << "stage=" << stage << " tenant=" << id;
    }
  }
  EXPECT_GE(snap.counter_total("distgnn_router_completed_total"), 64.0);

  // Valid Prometheus text: the round-trip parser accepts every line and
  // preserves the per-tenant stage histograms.
  const obs::MetricsSnapshot parsed = obs::parse_prometheus(obs::render_prometheus(snap));
  for (const tenant_t t : tenants) {
    const obs::MetricPoint* halo = parsed.find(
        "distgnn_sharded_stage_seconds", {{"stage", "halo_wait"}, {"tenant", std::to_string(t)}});
    ASSERT_NE(halo, nullptr);
    EXPECT_FALSE(halo->histogram.empty());
  }

  // The sampled traces from the grid are collectable through the registry.
  std::vector<obs::Trace> traces;
  registry.collect_traces(traces);
  EXPECT_FALSE(traces.empty());
}

}  // namespace
}  // namespace distgnn
