#include "serve/sharded_server.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "partition/partition_setup.hpp"
#include "serve/inference_server.hpp"

namespace distgnn::serve {

namespace {

/// Idle-poll interval: long enough not to burn a core per idle rank, short
/// enough that a peer's halo request never stalls meaningfully behind it.
constexpr auto kIdlePoll = std::chrono::microseconds(20);

/// LRU shards of each rank's feature cache and of its embed cache.
constexpr int kCacheShards = 4;
constexpr int kEmbedCacheShards = 8;

}  // namespace

std::vector<part_t> vertex_owners(const EdgeList& edges, const EdgePartition& partition,
                                  vid_t num_vertices) {
  std::vector<part_t> owners = place_vertices(edges, partition).root;
  owners.resize(static_cast<std::size_t>(num_vertices), kInvalidPart);
  for (std::size_t v = 0; v < owners.size(); ++v)
    if (owners[v] == kInvalidPart)
      owners[v] = static_cast<part_t>(v % static_cast<std::size_t>(partition.num_parts));
  return owners;
}

ShardedServer::RankCounters::RankCounters(obs::MetricsRegistry& registry, const obs::Labels& rank,
                                          const TierConfig& config)
    : batch(registry, "sharded", rank),
      halo{registry.counter("distgnn_sharded_halo_rows_total", rank),
           registry.counter("distgnn_sharded_halo_bytes_total", rank),
           registry.counter("distgnn_sharded_halo_wait_ns_total", rank)},
      feature(registry, "sharded", "feature", rank),
      halo_cache(registry, "sharded", "halo", rank) {
  if (!config.embed_forward) return;
  work.emplace(registry, "sharded", rank);
  if (config.embed_cache_bytes > 0)
    embed = embed_cache_counters(registry, "sharded", static_cast<int>(config.fanouts.size()), rank);
}

ShardedServer::ShardedServer(const Dataset& dataset, const EdgePartition& partition,
                             ShardedServeConfig config)
    : dataset_(dataset),
      num_vertices_(dataset.num_vertices()),
      config_(std::move(config)),
      num_parts_(partition.num_parts),
      world_(partition.num_parts) {
  if (num_parts_ < 1) throw std::invalid_argument("ShardedServer: need >= 1 partition part");
  if (config_.max_batch < 1) throw std::invalid_argument("ShardedServer: max_batch must be >= 1");
  if (config_.fanouts.empty()) throw std::invalid_argument("ShardedServer: fanouts empty");
  if (config_.prefetch_depth < 1)
    throw std::invalid_argument("ShardedServer: prefetch_depth must be >= 1");

  owner_ = vertex_owners(dataset_.graph.coo(), partition, dataset_.num_vertices());

  // Materialize each rank's feature shard: only owned rows, in ascending
  // vertex order — the rest of the feature store is reachable solely through
  // the halo protocol.
  const std::size_t f = static_cast<std::size_t>(dataset_.feature_dim());
  std::vector<std::size_t> shard_rows(static_cast<std::size_t>(num_parts_), 0);
  owned_row_.resize(owner_.size());
  for (std::size_t v = 0; v < owner_.size(); ++v)
    owned_row_[v] = shard_rows[static_cast<std::size_t>(owner_[v])]++;
  local_feats_.resize(static_cast<std::size_t>(num_parts_));
  for (part_t p = 0; p < num_parts_; ++p)
    local_feats_[static_cast<std::size_t>(p)].resize_discard(
        shard_rows[static_cast<std::size_t>(p)], f);
  for (std::size_t v = 0; v < owner_.size(); ++v) {
    const real_t* src = dataset_.features.row(v);
    std::copy(src, src + f, local_feats_[static_cast<std::size_t>(owner_[v])].row(owned_row_[v]));
  }

  queues_.reserve(static_cast<std::size_t>(num_parts_));
  caches_.reserve(static_cast<std::size_t>(num_parts_));
  rank_counters_.reserve(static_cast<std::size_t>(num_parts_));
  for (part_t p = 0; p < num_parts_; ++p) {
    queues_.push_back(std::make_unique<BoundedRequestQueue>(config_.queue_capacity));
    const RankCounters& rank =
        rank_counters_.emplace_back(metrics_, obs::Labels{{"rank", std::to_string(p)}}, config_);
    caches_.push_back(std::make_unique<ShardedFeatureCache>(
        config_.cache_bytes, f, std::vector<CacheCounters>{rank.feature, rank.halo_cache},
        kCacheShards));
  }
  {
    util::MutexLock lock(embed_mutex_);
    embed_caches_.resize(static_cast<std::size_t>(num_parts_));
  }

  // Hot-swap hygiene for the per-rank layer-output caches (entries are
  // version-keyed, so this frees capacity rather than preventing staleness).
  holder_.set_on_publish([this](std::uint64_t) {
    util::MutexLock lock(embed_mutex_);
    for (auto& cache : embed_caches_)
      if (cache) cache->invalidate();
  });

  (void)dataset_.graph.in_csr();  // build once before the rank threads start
}

ShardedServer::~ShardedServer() { stop(); }

void ShardedServer::publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  check_servable(snapshot.get(), dataset_, config_, "ShardedServer");
  if (!rank_counters_.front().embed.empty()) {
    util::MutexLock lock(embed_mutex_);
    // First publish fixes the cached row widths (as in InferenceServer);
    // capacity is split across ranks so the sharded tier's total embed
    // budget matches a single server's embed_cache_bytes.
    const std::uint64_t per_rank = std::max<std::uint64_t>(
        1, config_.embed_cache_bytes / static_cast<std::uint64_t>(num_parts_));
    for (part_t p = 0; p < num_parts_; ++p) {
      std::unique_ptr<EmbedCache>& cache = embed_caches_[static_cast<std::size_t>(p)];
      if (!cache)
        cache = std::make_unique<EmbedCache>(
            snapshot->spec(), per_rank, rank_counters_[static_cast<std::size_t>(p)].embed,
            kEmbedCacheShards, static_cast<std::uint64_t>(dataset_.num_vertices()));
      else if (!cache->fits(snapshot->spec()))
        throw std::invalid_argument("ShardedServer: snapshot dims != embed cache dims");
    }
  }
  holder_.publish(std::move(snapshot));
  publishes_.add();
}

void ShardedServer::start() {
  if (running_.load(std::memory_order_acquire)) return;
  if (!holder_.get()) throw std::logic_error("ShardedServer: start() before publish()");
  for (auto& queue : queues_) queue->reopen();
  done_ranks_.store(0, std::memory_order_release);
  driver_ = std::thread([this] { world_.run([this](Communicator& comm) { rank_loop(comm); }); });
  running_.store(true, std::memory_order_release);
}

void ShardedServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  for (auto& queue : queues_) queue->close();  // no new admissions; drain the rest
  driver_.join();
  running_.store(false, std::memory_order_release);
}

bool ShardedServer::submit(vid_t vertex, const RequestMeta& meta,
                           std::function<void(InferResult&&)> done) {
  if (vertex < 0 || vertex >= num_vertices_)
    throw std::out_of_range("ShardedServer: vertex id out of range");
  // Owner-rank routing: the rank that owns the vertex's features serves it.
  const part_t target = owner_[static_cast<std::size_t>(vertex)];
  // In-flight is raised before the push so a drain() that starts after this
  // submit returns can never miss the request (a bounce undoes it).
  in_flight_.fetch_add(1, std::memory_order_release);
  if (admit_request(*queues_[static_cast<std::size_t>(target)],
                    next_id_.fetch_add(1, std::memory_order_relaxed), vertex, meta,
                    std::move(done), config_.trace_sample_rate, stage_metrics_))
    return true;
  in_flight_.fetch_sub(1, std::memory_order_release);
  return false;
}

std::size_t ShardedServer::queue_depth() const {
  std::size_t depth = 0;
  for (const auto& queue : queues_) depth += queue->size();
  return depth;
}

void ShardedServer::drain() {
  while (in_flight_.load(std::memory_order_acquire) != 0) std::this_thread::sleep_for(kIdlePoll);
}

double ShardedServer::mean_service_seconds() const {
  // Two counter reads per rank, no locks: this sits on the admission path.
  std::uint64_t completed = 0, service_ns = 0;
  for (const RankCounters& rank : rank_counters_) {
    completed += rank.batch.batched_requests.value();
    service_ns += rank.batch.service_ns.value();
  }
  return completed == 0 ? 0.0
                        : static_cast<double>(service_ns) * 1e-9 / static_cast<double>(completed);
}

EmbedCache* ShardedServer::embed_cache_ptr(part_t rank) const {
  util::MutexLock lock(embed_mutex_);
  return embed_caches_[static_cast<std::size_t>(rank)].get();
}

BackendStats ShardedServer::stats() const {
  BackendStats s;
  for (part_t p = 0; p < num_parts_; ++p) {
    const RankCounters& rank = rank_counters_[static_cast<std::size_t>(p)];
    BackendStats child;
    rank.batch.read(child);
    child.halo_rows_fetched = rank.halo.rows.value();
    child.halo_bytes = rank.halo.bytes.value();
    child.halo_wait_seconds = static_cast<double>(rank.halo.wait_ns.value()) * 1e-9;
    child.queue_depth = queues_[static_cast<std::size_t>(p)]->size();
    child.feature_cache = rank.feature.read();
    child.halo_cache = rank.halo_cache.read();
    for (const CacheCounters& level : rank.embed) child.embed_cache += level.read();
    s.absorb(std::move(child));
  }
  // Tenant lanes, rejections (counted at submit) and the latency fold are
  // accounted at the server edge, not per rank.
  read_stage_metrics(stage_metrics_, s);
  return s;
}

void ShardedServer::scrape(obs::MetricsSnapshot& out) const { metrics_.scrape(out); }

void ShardedServer::collect_traces(std::vector<obs::Trace>& out) const {
  trace_sink_.collect(out);
}

void ShardedServer::finish_batch(std::vector<InferRequest>& batch, const DenseMatrix& logits,
                                 std::uint64_t snapshot_version,
                                 ServeClock::time_point service_begin, RankCounters& counters,
                                 const obs::BatchStageTimes& stages) {
  reply_batch(batch, logits, snapshot_version, service_begin, stages, stage_metrics_, trace_sink_,
              counters.batch);
  // Last, after every callback and counter: drain() and the publish barrier
  // read this to quiesce.
  in_flight_.fetch_sub(batch.size(), std::memory_order_release);
}

void ShardedServer::apply_graph_update(const std::function<void()>& apply,
                                       const GraphUpdateNotice& notice) {
  // Pause rendezvous (live server only): raise the flag, wait until every
  // rank has drained its ring and parked. Classic ranks keep answering halo
  // requests while parked, so slower ranks can always finish draining.
  const bool live = running_.load(std::memory_order_acquire);
  if (live) {
    pause_flag_.store(true, std::memory_order_release);
    util::MutexLock lock(pause_mutex_);
    while (paused_ranks_ != num_parts_) pause_cv_.wait(lock);
  }

  if (apply) apply();

  // Re-materialize updated feature rows into their owners' local shards.
  // Ownership is structural (vertex-cut of the edge set), the vertex set is
  // fixed, and we do not re-home vertices on delta, so every updated row
  // already has a slot.
  const std::size_t f = static_cast<std::size_t>(dataset_.feature_dim());
  for (const vid_t v : notice.features) {
    const auto i = static_cast<std::size_t>(v);
    const real_t* src = dataset_.features.row(i);
    std::copy(src, src + f, local_feats_[static_cast<std::size_t>(owner_[i])].row(owned_row_[i]));
  }

  // Invalidate per-rank caches: feature rows by id in both spaces (0 = local/
  // embed rows, 1 = halo rows — a stale halo copy is as wrong as a stale
  // local one), then the layer-output caches via targeted epoch advance.
  for (part_t p = 0; p < num_parts_; ++p) {
    ShardedFeatureCache& cache = *caches_[static_cast<std::size_t>(p)];
    for (const vid_t v : notice.features) {
      cache.erase(/*space=*/0, static_cast<std::uint64_t>(v));
      cache.erase(/*space=*/1, static_cast<std::uint64_t>(v));
    }
    if (EmbedCache* embed = embed_cache_ptr(p)) {
      if (notice.full_flush)
        embed->invalidate();
      else
        embed->advance_epoch(notice.epoch, notice.dirty_layers);
    }
  }
  graph_epoch_.store(notice.epoch, std::memory_order_release);

  if (live) {
    pause_flag_.store(false, std::memory_order_release);
    util::MutexLock lock(pause_mutex_);
    while (paused_ranks_ != 0) pause_cv_.wait(lock);
  }
}

void ShardedServer::park_for_update(const std::function<void()>& while_parked) {
  util::MutexLock lock(pause_mutex_);
  ++paused_ranks_;
  pause_cv_.notify_all();
  while (pause_flag_.load(std::memory_order_acquire)) {
    lock.unlock();
    while_parked();
    std::this_thread::sleep_for(kIdlePoll);
    lock.lock();
  }
  --paused_ranks_;
  pause_cv_.notify_all();
}

void ShardedServer::rank_loop(Communicator& comm) {
  const part_t me = static_cast<part_t>(comm.rank());
  if (config_.embed_forward)
    run_embed_rank(comm, me);
  else
    run_classic_rank(comm, me);
}

void ShardedServer::run_classic_rank(Communicator& comm, part_t me) {
  BoundedRequestQueue& queue = *queues_[static_cast<std::size_t>(me)];
  ShardedFeatureCache& cache = *caches_[static_cast<std::size_t>(me)];
  RankCounters& counters = rank_counters_[static_cast<std::size_t>(me)];
  HaloFetcher fetcher(comm, owner_, owned_row_, local_feats_[static_cast<std::size_t>(me)], cache,
                      counters.halo);
  ForwardScratch scratch;
  DenseMatrix logits;

  // Ring of in-flight halo batches. A slot holds everything a batch needs
  // between begin_fetch and its forward; slots recycle so steady state never
  // allocates. The snapshot is pinned at admission, so a hot-swap never
  // tears a batch.
  struct Slot {
    HaloBatch halo;
    std::vector<InferRequest> requests;
    std::shared_ptr<const ModelSnapshot> snapshot;
    ServeClock::time_point service_begin;
    ServeClock::time_point sample_end;  // sampling done; halo_wait starts here
  };
  const int depth = config_.prefetch_depth;
  std::vector<Slot> slots(static_cast<std::size_t>(depth));
  std::vector<Slot*> free_slots;
  for (Slot& slot : slots) free_slots.push_back(&slot);
  std::deque<Slot*> in_flight;

  const auto admit_next = [&]() -> bool {
    if (free_slots.empty()) return false;
    std::vector<InferRequest> batch = queue.try_pop_batch(config_.max_batch);
    if (batch.empty()) return false;
    // Re-read the CSR per batch: a graph delta swaps dataset_.graph while
    // every rank is parked (ring drained), so a reference captured once at
    // loop entry would dangle after the first apply.
    const CsrMatrix& in_csr = dataset_.graph.in_csr();
    Slot* slot = free_slots.back();
    free_slots.pop_back();
    slot->requests = std::move(batch);
    slot->snapshot = holder_.get();
    slot->service_begin = ServeClock::now();
    slot->halo.minibatches.clear();
    // RGCN blocks need relation labels per sampled edge; the typed sampler
    // draws the identical RNG stream, so SAGE/GAT answers are unaffected.
    const std::vector<int>* edge_types =
        slot->snapshot->spec().kind == ModelKind::kRgcn ? &dataset_.edge_types : nullptr;
    for (const InferRequest& request : slot->requests) {
      Rng rng = request_rng(config_.sample_seed, request.vertex);
      const vid_t seed[1] = {request.vertex};
      slot->halo.minibatches.push_back(
          sample_minibatch(in_csr, seed, config_.fanouts, rng, edge_types));
    }
    slot->sample_end = ServeClock::now();
    fetcher.begin_fetch(slot->halo);
    in_flight.push_back(slot);
    return true;
  };

  while (true) {
    fetcher.service_peers();
    const bool pausing = pause_flag_.load(std::memory_order_acquire);
    // Keep the ring full: batches N+1..N+depth-1 have their halo requests
    // riding the wire (and the peers' service loops) while batch N's
    // forward runs below. A pending pause stops admission so the ring
    // drains to the rendezvous at a batch boundary.
    while (!pausing && static_cast<int>(in_flight.size()) < depth && admit_next()) {
    }
    if (in_flight.empty()) {
      if (pausing) {
        // Keep answering peers' halo requests while parked: another rank may
        // be draining batches that need our rows. With every rank parked no
        // halo message is in flight, so the updater can mutate local_feats_.
        park_for_update([&] { fetcher.service_peers(); });
        continue;
      }
      // Exit only once the queue is closed AND drained: a stop flag alone
      // would race a producer whose try_push lands between our emptiness
      // check and stop()'s close(), stranding an admitted request forever.
      if (queue.closed() && queue.size() == 0) break;
      std::this_thread::sleep_for(kIdlePoll);
      continue;
    }
    Slot* slot = in_flight.front();
    in_flight.pop_front();
    fetcher.finish_fetch(slot->halo);  // FIFO channels: finish in begin order
    // halo_wait spans begin_fetch -> finish_fetch return: ring residency
    // while peers reply (the time prefetch overlaps away) plus any blocked
    // tail — exactly the window a request spends waiting on remote rows.
    const auto halo_end = ServeClock::now();
    slot->snapshot->forward_batch(slot->halo.minibatches, slot->halo.inputs.cview(), scratch,
                                  logits);
    const auto forward_end = ServeClock::now();
    obs::BatchStageTimes stages;
    stages.sample = obs::make_span(slot->service_begin, slot->sample_end);
    stages.halo_wait = obs::make_span(slot->sample_end, halo_end);
    stages.forward = obs::make_span(halo_end, forward_end);
    finish_batch(slot->requests, logits, slot->snapshot->version(), slot->service_begin, counters,
                 stages);
    slot->snapshot.reset();
    free_slots.push_back(slot);
  }

  // A peer may still be waiting on our halo replies: keep servicing until
  // every rank has drained its own queue, then leave together.
  done_ranks_.fetch_add(1, std::memory_order_acq_rel);
  while (done_ranks_.load(std::memory_order_acquire) < num_parts_) {
    fetcher.service_peers();
    std::this_thread::sleep_for(kIdlePoll);
  }
}

void ShardedServer::run_embed_rank(Communicator& comm, part_t me) {
  (void)comm;  // embed mode exchanges no halo messages — layer-0 rows come
               // through the shared in-process feature store via the rank's
               // feature cache — so the loop is a plain poll over the queue.
  BoundedRequestQueue& queue = *queues_[static_cast<std::size_t>(me)];
  RankCounters& counters = rank_counters_[static_cast<std::size_t>(me)];
  EmbedForward evaluator(dataset_, config_.fanouts, config_.sample_seed, embed_cache_ptr(me),
                         caches_[static_cast<std::size_t>(me)].get(), &*counters.work);
  std::vector<vid_t> seeds;
  DenseMatrix logits;

  while (true) {
    if (pause_flag_.load(std::memory_order_acquire)) {
      park_for_update([] {});  // no halo traffic: no peers to service
      continue;
    }
    std::vector<InferRequest> batch = queue.try_pop_batch(config_.max_batch);
    if (batch.empty()) {
      if (queue.closed() && queue.size() == 0) break;  // see run_classic_rank
      std::this_thread::sleep_for(kIdlePoll);
      continue;
    }
    const auto service_begin = ServeClock::now();
    const std::shared_ptr<const ModelSnapshot> snapshot = holder_.get();
    seeds.clear();
    for (const InferRequest& request : batch) seeds.push_back(request.vertex);
    evaluator.infer(*snapshot, seeds, logits, graph_epoch_.load(std::memory_order_acquire));
    obs::BatchStageTimes stages;
    stages.embed_lookup = obs::make_span(service_begin, ServeClock::now());
    finish_batch(batch, logits, snapshot->version(), service_begin, counters, stages);
  }

  done_ranks_.fetch_add(1, std::memory_order_acq_rel);
  while (done_ranks_.load(std::memory_order_acquire) < num_parts_)
    std::this_thread::sleep_for(kIdlePoll);
}

}  // namespace distgnn::serve
