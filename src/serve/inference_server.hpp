// Single-process online inference server.
//
// A pool of worker threads pulls micro-batches off a bounded request queue,
// samples each request's k-hop neighbourhood (deterministically, seeded per
// vertex so a request's answer does not depend on which batch it landed in),
// gathers input features through the sharded LRU feature cache, and runs the
// stacked batch through the live ModelSnapshot in one pass. Snapshots are
// published through SnapshotHolder, so a new checkpoint can go live between
// batches while in-flight batches finish on the model they started with.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape.hpp"
#include "obs/trace.hpp"
#include "serve/backend.hpp"
#include "serve/embed_cache.hpp"
#include "serve/feature_cache.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/request_queue.hpp"
#include "serve/tier_config.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

/// Single-process server config: the shared tier knobs (batching, fanouts,
/// caches, sampling seed, embed mode — see serve/tier_config.hpp) plus the
/// worker-pool width.
struct ServeConfig : TierConfig {
  int num_workers = 2;
};

/// Deterministic per-request sampling stream shared by every serving mode.
Rng request_rng(std::uint64_t sample_seed, vid_t vertex);

class InferenceServer : public ServingBackend {
 public:
  /// The dataset provides graph structure and the feature store; the model
  /// comes in via publish(). The server keeps references only — the dataset
  /// must outlive it.
  InferenceServer(const Dataset& dataset, ServeConfig config);
  ~InferenceServer() override;

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Atomically swaps the served model. Callable before start() and at any
  /// point under live traffic.
  void publish(std::shared_ptr<const ModelSnapshot> snapshot) override;
  std::shared_ptr<const ModelSnapshot> snapshot() const override { return holder_.get(); }

  /// Spawns the worker pool. Requires a published snapshot.
  void start() override;
  /// Closes the queue, drains pending requests, joins the workers. Idempotent.
  void stop() override;

  using ServingBackend::submit;
  /// Submission with admission-control metadata (router path). Returns false
  /// (and counts a rejection) when the bounded queue is full. The server
  /// itself never drops on deadline — that decision belongs to the router.
  /// The request's tenant id rides along into the InferResult and the
  /// per-tenant stats lanes.
  bool submit(vid_t vertex, const RequestMeta& meta,
              std::function<void(InferResult&&)> done) override;

  /// Requests currently waiting in the bounded queue (excludes in-service
  /// batches); the signal power-of-two-choices routing compares.
  std::size_t queue_depth() const override { return queue_.size(); }
  /// Blocks until every admitted request has completed.
  void drain() override;
  bool accepting() const override {
    return config_.queue_capacity > 0 && running_.load(std::memory_order_acquire);
  }
  /// Amortized per-request service time observed so far (0 until the first
  /// batch completes).
  double mean_service_seconds() const override;
  int concurrency() const override { return config_.num_workers; }

  /// Version-barriered graph mutation: workers hold graph_gate_ shared per
  /// batch, so the exclusive acquisition here waits out in-service batches
  /// and blocks new ones for exactly the apply + invalidate window. The
  /// queue stays open — readers outside the window wait, they are never
  /// rejected — and targeted invalidation drops only the notice's dirty
  /// (vertex, layer) entries, promoting everything else to the new epoch.
  void apply_graph_update(const std::function<void()>& apply,
                          const GraphUpdateNotice& notice) override;
  std::uint64_t graph_epoch() const override {
    return graph_epoch_.load(std::memory_order_acquire);
  }

  BackendStats stats() const override;
  /// ScrapeSource: fold this server's stage histograms and tenant counters
  /// into `out` (acquire-load fold of the per-worker metric shards).
  void scrape(obs::MetricsSnapshot& out) const override;
  /// Completed sampled stage traces (ring + slow-request exemplars).
  void collect_traces(std::vector<obs::Trace>& out) const override;
  const obs::TraceSink& trace_sink() const { return trace_sink_; }

  const ServeConfig& config() const { return config_; }
  const Dataset& dataset() const override { return dataset_; }

 private:
  void worker_loop();
  void process_batch(std::vector<InferRequest>&& batch, ForwardScratch& scratch,
                     std::vector<MiniBatch>& minibatches, DenseMatrix& inputs,
                     DenseMatrix& logits);
  void process_batch_embed(std::vector<InferRequest>&& batch, EmbedForward& evaluator,
                           std::vector<vid_t>& seeds, DenseMatrix& logits);
  void finish_batch(std::vector<InferRequest>& batch, const DenseMatrix& logits,
                    std::uint64_t snapshot_version, ServeClock::time_point service_begin,
                    const obs::BatchStageTimes& stages);
  EmbedCache* embed_cache_ptr() const;

  const Dataset& dataset_;
  /// Immutable mirror of dataset_.num_vertices(): the streamed-update
  /// contract fixes the vertex set at construction, and submit() must not
  /// read through dataset_.graph while a barrier is move-assigning it.
  const vid_t num_vertices_;
  ServeConfig config_;

  /// The server's one set of books: per-tenant submitted/completed/shed
  /// counters, per-stage and end-to-end latency histograms, the batch
  /// tallies, the caches' counters, the embed evaluator's work and the
  /// publishes. Workers add into their own cache lines; stats()/scrape()
  /// only read. Declared before the caches, which count into it.
  obs::MetricsRegistry metrics_;
  obs::StageMetrics stage_metrics_{metrics_, "server"};
  BatchCounters batch_counters_{metrics_, "server"};
  CacheCounters feature_counters_{metrics_, "server", "feature"};
  std::vector<CacheCounters> embed_counters_;  // per level; empty without an embed cache
  std::optional<EmbedWork> embed_work_;        // embed_forward only
  obs::Counter& publishes_{metrics_.counter("distgnn_server_publishes_total")};
  obs::TraceSink trace_sink_;

  SnapshotHolder holder_;
  BoundedRequestQueue queue_;
  ShardedFeatureCache cache_;
  /// Created lazily at first publish (the spec fixes its geometry); guarded
  /// by embed_mutex_ so concurrent publishers / stats readers never race the
  /// unique_ptr. The EmbedCache itself is internally thread-safe.
  mutable util::Mutex embed_mutex_;
  std::unique_ptr<EmbedCache> embed_cache_ GUARDED_BY(embed_mutex_);
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};

  /// Graph-update barrier: workers shared per batch, delta apply exclusive.
  util::SharedMutex graph_gate_;
  std::atomic<std::uint64_t> graph_epoch_{0};

  std::atomic<std::uint64_t> next_id_{0};
  /// Admitted requests whose batch has not finished replying: the drain()
  /// signal. Raised before the queue push, lowered after the callbacks.
  std::atomic<std::uint64_t> in_flight_{0};
};

/// The publish check of InferenceServer and ShardedServer: `snapshot` is
/// non-null, as deep as `config`'s fanouts, as wide as `dataset`'s features,
/// and, for RGCN, typed like its edges and not served in embed mode. Throws
/// std::invalid_argument prefixed by `who`.
void check_servable(const ModelSnapshot* snapshot, const Dataset& dataset,
                    const TierConfig& config, const std::string& who);

/// Builds and trace-stamps request `id` and offers it to `queue`: the one
/// admission path of InferenceServer and ShardedServer. Books the submit
/// and its admit stage in `metrics`; a bounce counts a shed and returns
/// false.
bool admit_request(BoundedRequestQueue& queue, std::uint64_t id, vid_t vertex,
                   const RequestMeta& meta, std::function<void(InferResult&&)> done,
                   double trace_sample_rate, obs::StageMetrics& metrics);

/// Replies to every request of a finished batch and books it: per-request
/// stage windows, trace spans, the callback, end-to-end latency and the
/// completion into `metrics`/`sink`, then the batch into `counters`. The one
/// completion path of InferenceServer workers and ShardedServer ranks.
void reply_batch(std::vector<InferRequest>& batch, const DenseMatrix& logits,
                 std::uint64_t snapshot_version, ServeClock::time_point service_begin,
                 const obs::BatchStageTimes& stages, obs::StageMetrics& metrics,
                 obs::TraceSink& sink, BatchCounters& counters);

}  // namespace distgnn::serve
