#include "serve/inference_server.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

namespace distgnn::serve {

namespace {

/// LRU shards of the feature cache and of the embed cache.
constexpr int kCacheShards = 8;
constexpr int kEmbedCacheShards = 8;

}  // namespace

Rng request_rng(std::uint64_t sample_seed, vid_t vertex) {
  // splitmix64 over the vertex id, xored into the base seed: adjacent vertex
  // ids get uncorrelated streams, and the stream depends only on (seed,
  // vertex) — never on batch composition, worker id, or serving mode.
  return Rng(sample_seed ^ splitmix64(static_cast<std::uint64_t>(vertex)));
}

InferenceServer::InferenceServer(const Dataset& dataset, ServeConfig config)
    : dataset_(dataset),
      num_vertices_(dataset.num_vertices()),
      config_(std::move(config)),
      queue_(config_.queue_capacity),
      cache_(config_.cache_bytes, static_cast<std::size_t>(dataset.feature_dim()),
             {feature_counters_}, kCacheShards) {
  if (config_.num_workers < 1) throw std::invalid_argument("InferenceServer: need >= 1 worker");
  if (config_.max_batch < 1) throw std::invalid_argument("InferenceServer: max_batch must be >= 1");
  if (config_.fanouts.empty()) throw std::invalid_argument("InferenceServer: fanouts empty");
  if (config_.embed_forward) {
    embed_work_.emplace(metrics_, "server");
    if (config_.embed_cache_bytes > 0)
      embed_counters_ = embed_cache_counters(metrics_, "server",
                                             static_cast<int>(config_.fanouts.size()));
  }
  // Hot-swap invalidation for the layer-output cache: entries are
  // version-keyed (stale rows can never match), so the hook is capacity
  // hygiene — a publish frees the dead version's slots immediately.
  holder_.set_on_publish([this](std::uint64_t) {
    if (EmbedCache* cache = embed_cache_ptr()) cache->invalidate();
  });
  // Force CSR construction now so worker threads share the built structure.
  (void)dataset_.graph.in_csr();
}

InferenceServer::~InferenceServer() { stop(); }

void check_servable(const ModelSnapshot* snapshot, const Dataset& dataset,
                    const TierConfig& config, const std::string& who) {
  if (!snapshot) throw std::invalid_argument(who + ": null snapshot");
  const ModelSpec& spec = snapshot->spec();
  if (spec.num_layers != static_cast<int>(config.fanouts.size()))
    throw std::invalid_argument(who + ": fanouts depth != model layers");
  if (spec.feature_dim != dataset.feature_dim())
    throw std::invalid_argument(who + ": snapshot feature_dim != dataset");
  if (spec.kind == ModelKind::kRgcn) {
    // Relational models need typed edges: the dataset must carry a per-edge
    // relation label matching the snapshot's relation count.
    if (dataset.num_edge_types != spec.num_relations)
      throw std::invalid_argument(who + ": snapshot num_relations != dataset edge types");
    if (config.embed_forward)
      throw std::invalid_argument(who + ": embed_forward does not support RGCN");
  }
}

void InferenceServer::publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  check_servable(snapshot.get(), dataset_, config_, "InferenceServer");
  if (!embed_counters_.empty()) {
    util::MutexLock lock(embed_mutex_);
    // First publish fixes the cached row widths; later snapshots must keep
    // them. Entries per layer are capped at the vertex count — the whole key
    // population, since publish invalidation keeps a single version resident.
    if (!embed_cache_)
      embed_cache_ = std::make_unique<EmbedCache>(
          snapshot->spec(), config_.embed_cache_bytes, embed_counters_,
          kEmbedCacheShards, static_cast<std::uint64_t>(dataset_.num_vertices()));
    else if (!embed_cache_->fits(snapshot->spec()))
      throw std::invalid_argument("InferenceServer: snapshot dims != embed cache dims");
  }
  holder_.publish(std::move(snapshot));
  publishes_.add();
}

void InferenceServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  if (!holder_.get()) throw std::logic_error("InferenceServer: start() before publish()");
  queue_.reopen();  // stop() closed it; a restarted server must admit again
  running_.store(true, std::memory_order_release);
  workers_.reserve(static_cast<std::size_t>(config_.num_workers));
  for (int w = 0; w < config_.num_workers; ++w)
    workers_.emplace_back([this] { worker_loop(); });
}

void InferenceServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  queue_.close();
  for (auto& t : workers_) t.join();
  workers_.clear();
  running_.store(false, std::memory_order_release);
}

bool admit_request(BoundedRequestQueue& queue, std::uint64_t id, vid_t vertex,
                   const RequestMeta& meta, std::function<void(InferResult&&)> done,
                   double trace_sample_rate, obs::StageMetrics& metrics) {
  const auto enqueue = ServeClock::now();
  InferRequest request;
  request.id = id;
  request.vertex = vertex;
  request.enqueue = enqueue;
  request.deadline = meta.deadline;
  request.priority = meta.priority;
  request.tenant = meta.tenant;
  request.done = std::move(done);
  // Trace stamping happens entirely before the push — the request is moved
  // into the queue, and a post-push write would race the popping thread.
  if (meta.trace) {
    request.trace = meta.trace;
  } else if (trace_sample_rate > 0 && obs::trace_sampled(id, meta.tenant, trace_sample_rate)) {
    request.trace = std::make_shared<obs::TraceContext>(id, meta.tenant,
                                                        static_cast<std::int64_t>(vertex), enqueue);
  }
  const auto pre_push = ServeClock::now();
  if (request.trace) {
    request.trace->set_stage(obs::Stage::kAdmit, enqueue, pre_push);
    request.trace->begin_stage(obs::Stage::kQueue, pre_push);
  }
  metrics.submitted.with(meta.tenant).add();
  if (queue.try_push(std::move(request))) {
    metrics.observe_stage(obs::Stage::kAdmit, meta.tenant,
                          std::chrono::duration<double>(pre_push - enqueue).count());
    return true;
  }
  metrics.shed.with(meta.tenant).add();
  return false;
}

bool InferenceServer::submit(vid_t vertex, const RequestMeta& meta,
                             std::function<void(InferResult&&)> done) {
  if (vertex < 0 || vertex >= num_vertices_)
    throw std::out_of_range("InferenceServer: vertex id out of range");
  // In-flight is raised before the push so a drain() that starts after this
  // submit returns can never miss the request (a bounce undoes it).
  in_flight_.fetch_add(1, std::memory_order_release);
  if (admit_request(queue_, next_id_.fetch_add(1, std::memory_order_relaxed), vertex, meta,
                    std::move(done), config_.trace_sample_rate, stage_metrics_))
    return true;
  in_flight_.fetch_sub(1, std::memory_order_release);
  return false;
}

void InferenceServer::drain() {
  // Quiesce: everything admitted so far has completed. Polling keeps the
  // completion path free of extra synchronization; drains are rare (publish
  // barriers, shutdown) while completions are the hot path.
  while (in_flight_.load(std::memory_order_acquire) != 0)
    std::this_thread::sleep_for(std::chrono::microseconds(50));
}

EmbedCache* InferenceServer::embed_cache_ptr() const {
  util::MutexLock lock(embed_mutex_);
  return embed_cache_.get();
}

void InferenceServer::apply_graph_update(const std::function<void()>& apply,
                                         const GraphUpdateNotice& notice) {
  // Exclusive acquisition = the barrier: every in-service batch holds the
  // gate shared, so this waits them out, then mutates while later batches
  // park on the shared acquisition. Queued requests are not drained — the
  // window is the apply + invalidate below, nothing more.
  util::WriterLock gate(graph_gate_);
  if (apply) apply();
  // Feature rows rewritten by the delta: evict their layer-0 cache entries
  // so the next gather refills from the updated store.
  for (const vid_t v : notice.features)
    cache_.erase(/*space=*/0, static_cast<std::uint64_t>(v));
  if (EmbedCache* cache = embed_cache_ptr()) {
    if (notice.full_flush)
      cache->invalidate();
    else
      cache->advance_epoch(notice.epoch, notice.dirty_layers);
  }
  graph_epoch_.store(notice.epoch, std::memory_order_release);
}

void InferenceServer::worker_loop() {
  if (config_.embed_forward) {
    // start() requires a prior publish, so the cache pointer is stable for
    // the whole worker lifetime.
    EmbedForward evaluator(dataset_, config_.fanouts, config_.sample_seed, embed_cache_ptr(),
                           &cache_, &*embed_work_);
    std::vector<vid_t> seeds;
    DenseMatrix logits;
    while (true) {
      std::vector<InferRequest> batch =
          queue_.pop_batch(config_.max_batch, config_.max_batch_delay);
      if (batch.empty()) return;  // closed and drained
      // The gate is shared per batch: a delta apply's exclusive acquisition
      // waits out in-service batches and parks new ones for the barrier
      // window; a batch popped just before the apply completes on the new
      // graph at the new epoch (reads see epoch e or e+1, never a mix).
      util::ReaderLock gate(graph_gate_);
      process_batch_embed(std::move(batch), evaluator, seeds, logits);
    }
  }
  ForwardScratch scratch;
  std::vector<MiniBatch> minibatches;
  DenseMatrix inputs, logits;
  while (true) {
    std::vector<InferRequest> batch = queue_.pop_batch(config_.max_batch, config_.max_batch_delay);
    if (batch.empty()) return;  // closed and drained
    util::ReaderLock gate(graph_gate_);  // see embed loop
    process_batch(std::move(batch), scratch, minibatches, inputs, logits);
  }
}

void InferenceServer::process_batch(std::vector<InferRequest>&& batch, ForwardScratch& scratch,
                                    std::vector<MiniBatch>& minibatches, DenseMatrix& inputs,
                                    DenseMatrix& logits) {
  const auto service_begin = ServeClock::now();
  const std::shared_ptr<const ModelSnapshot> snapshot = holder_.get();
  const CsrMatrix& in_csr = dataset_.graph.in_csr();
  const std::size_t f = static_cast<std::size_t>(dataset_.feature_dim());

  // Independent per-request neighbourhood sampling: the batch is a stacking
  // of single-request plans, so its outputs are bitwise those of per-request
  // serving, while the GEMMs and the feature gather run once per batch.
  minibatches.clear();
  std::size_t input_rows = 0;
  // Relational snapshots need each sampled edge's relation label; the typed
  // sampler draws the identical RNG stream, so SAGE/GAT answers are
  // unaffected by the dataset carrying edge types.
  const std::vector<int>* edge_types =
      snapshot->spec().kind == ModelKind::kRgcn ? &dataset_.edge_types : nullptr;
  for (const InferRequest& request : batch) {
    Rng rng = request_rng(config_.sample_seed, request.vertex);
    const vid_t seed[1] = {request.vertex};
    minibatches.push_back(sample_minibatch(in_csr, seed, config_.fanouts, rng, edge_types));
    input_rows += minibatches.back().input_vertices.size();
  }

  inputs.resize_discard(input_rows, f);
  std::size_t row = 0;
  for (const MiniBatch& mb : minibatches) {
    for (const vid_t v : mb.input_vertices) {
      cache_.get_or_fill(/*space=*/0, static_cast<std::uint64_t>(v), inputs.row(row),
                         [&](real_t* dst) {
                           const real_t* src = dataset_.features.row(static_cast<std::size_t>(v));
                           std::copy(src, src + f, dst);
                         });
      ++row;
    }
  }

  // Stage windows: `sample` covers plan + input-feature gather (minibatch
  // preparation on the single-process path), `forward` the GEMM stack.
  const auto forward_begin = ServeClock::now();
  snapshot->forward_batch(minibatches, inputs.cview(), scratch, logits);
  const auto forward_end = ServeClock::now();

  obs::BatchStageTimes stages;
  stages.sample = obs::make_span(service_begin, forward_begin);
  stages.forward = obs::make_span(forward_begin, forward_end);
  finish_batch(batch, logits, snapshot->version(), service_begin, stages);
}

void InferenceServer::process_batch_embed(std::vector<InferRequest>&& batch,
                                          EmbedForward& evaluator, std::vector<vid_t>& seeds,
                                          DenseMatrix& logits) {
  const auto service_begin = ServeClock::now();
  const std::shared_ptr<const ModelSnapshot> snapshot = holder_.get();
  seeds.clear();
  for (const InferRequest& request : batch) seeds.push_back(request.vertex);
  const auto embed_begin = ServeClock::now();
  evaluator.infer(*snapshot, seeds, logits, graph_epoch_.load(std::memory_order_acquire));
  const auto embed_end = ServeClock::now();

  // EmbedForward samples and computes per (vertex, layer) internally, so the
  // whole evaluation is one embed_lookup window.
  obs::BatchStageTimes stages;
  stages.embed_lookup = obs::make_span(embed_begin, embed_end);
  finish_batch(batch, logits, snapshot->version(), service_begin, stages);
}

void InferenceServer::finish_batch(std::vector<InferRequest>& batch, const DenseMatrix& logits,
                                   std::uint64_t snapshot_version,
                                   ServeClock::time_point service_begin,
                                   const obs::BatchStageTimes& stages) {
  reply_batch(batch, logits, snapshot_version, service_begin, stages, stage_metrics_, trace_sink_,
              batch_counters_);
  // Last, after every callback and counter: drain() reads this to quiesce.
  in_flight_.fetch_sub(batch.size(), std::memory_order_release);
}

void reply_batch(std::vector<InferRequest>& batch, const DenseMatrix& logits,
                 std::uint64_t snapshot_version, ServeClock::time_point service_begin,
                 const obs::BatchStageTimes& stages, obs::StageMetrics& metrics,
                 obs::TraceSink& sink, BatchCounters& counters) {
  const auto now = ServeClock::now();
  auto reply_begin = now;  // each request's reply window starts where the previous ended
  for (std::size_t r = 0; r < batch.size(); ++r) {
    InferRequest& request = batch[r];
    InferResult result;
    result.request_id = request.id;
    result.vertex = request.vertex;
    result.logits.assign(logits.row(r), logits.row(r) + logits.cols());
    result.latency_seconds = std::chrono::duration<double>(now - request.enqueue).count();
    result.snapshot_version = snapshot_version;
    result.tenant = request.tenant;

    // Batch-level stage windows, stamped per request: queue ended when the
    // worker popped the batch; sample/halo_wait/forward (or embed_lookup) are
    // the batch windows every rider shares.
    metrics.observe_stage(obs::Stage::kQueue, request.tenant,
                          std::chrono::duration<double>(service_begin - request.enqueue).count());
    if (stages.sample.valid())
      metrics.observe_stage(obs::Stage::kSample, request.tenant, stages.sample.duration_seconds());
    if (stages.halo_wait.valid())
      metrics.observe_stage(obs::Stage::kHaloWait, request.tenant,
                            stages.halo_wait.duration_seconds());
    if (stages.embed_lookup.valid())
      metrics.observe_stage(obs::Stage::kEmbedLookup, request.tenant,
                            stages.embed_lookup.duration_seconds());
    if (stages.forward.valid())
      metrics.observe_stage(obs::Stage::kForward, request.tenant,
                            stages.forward.duration_seconds());
    if (request.trace) {
      obs::TraceContext& trace = *request.trace;
      trace.end_stage(obs::Stage::kQueue, service_begin);
      if (stages.sample.valid()) trace.set_stage(obs::Stage::kSample, stages.sample);
      if (stages.halo_wait.valid()) trace.set_stage(obs::Stage::kHaloWait, stages.halo_wait);
      if (stages.embed_lookup.valid())
        trace.set_stage(obs::Stage::kEmbedLookup, stages.embed_lookup);
      if (stages.forward.valid()) trace.set_stage(obs::Stage::kForward, stages.forward);
      // The trace's reply span starts at batch finish, not at the chained
      // window: for a later rider the wait on its predecessors' callbacks is
      // part of its end-to-end reply latency, and the spans must cover the
      // measured total. The histogram below keeps the chained (marginal)
      // window so per-request reply costs still sum to the batch's.
      trace.begin_stage(obs::Stage::kReply, now);
    }

    if (request.done) request.done(std::move(result));
    const auto reply_end = ServeClock::now();
    metrics.observe_stage(obs::Stage::kReply, request.tenant,
                          std::chrono::duration<double>(reply_end - reply_begin).count());
    metrics.request_seconds.with(request.tenant)
        .observe(std::chrono::duration<double>(reply_end - request.enqueue).count());
    metrics.completed.with(request.tenant).add();
    if (request.trace) {
      request.trace->end_stage(obs::Stage::kReply, reply_end);
      sink.publish(request.trace->finish(reply_end));
    }
    reply_begin = reply_end;
  }
  counters.add_batch(batch.size(), ServeClock::now() - service_begin);
}

double InferenceServer::mean_service_seconds() const {
  // Two counter reads only — this sits on the per-request admission path, so
  // it must not fold the whole stats() view.
  const std::uint64_t completed = batch_counters_.batched_requests.value();
  return completed == 0 ? 0.0
                        : static_cast<double>(batch_counters_.service_ns.value()) * 1e-9 /
                              static_cast<double>(completed);
}

BackendStats InferenceServer::stats() const {
  BackendStats s;
  batch_counters_.read(s);
  read_stage_metrics(stage_metrics_, s);
  s.queue_depth = queue_.size();
  s.feature_cache = feature_counters_.read();
  for (const CacheCounters& level : embed_counters_) s.embed_cache += level.read();
  return s;
}

void InferenceServer::scrape(obs::MetricsSnapshot& out) const { metrics_.scrape(out); }

void InferenceServer::collect_traces(std::vector<obs::Trace>& out) const {
  trace_sink_.collect(out);
}

}  // namespace distgnn::serve
