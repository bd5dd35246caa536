// Partition-aware sharded serving: one persistent server loop per rank.
//
// Production deployments shard the (huge) feature store, not the (compact)
// adjacency: every rank keeps the full graph structure for sampling, but
// holds feature rows only for the vertices it owns under a partition/libra
// vertex-cut (a vertex's owner is the rank of its root clone, i.e. the
// owns_label clone of partition_setup). ShardedServer routes each submitted
// request to the owner rank of its target vertex; when a sampled
// neighbourhood reaches into another rank's shard, the missing rows are
// fetched point-to-point over the World runtime (serve/prefetch's
// HaloFetcher) and retained in the halo space of the rank's feature cache.
//
// Each rank runs a poll loop — never a blocking wait — because a rank that
// blocked on local work would stop answering peers' halo requests
// (distributed deadlock). The loop keeps a ring of up to
// `prefetch_depth` in-flight HaloBatches: with depth 1 the fetch is
// synchronous (begin + finish back to back); with depth d >= 2, batches
// N+1..N+d-1 have their halo requests on the wire while batch N's forward
// runs, so peer replies overlap compute. Answers are bitwise-identical at
// every depth; only halo_wait_seconds moves.
//
// Sampling uses the same request_rng(seed, vertex) stream as the
// single-process InferenceServer, so a P-rank sharded deployment answers
// bitwise-identically to one server over the whole feature store — the
// equivalence tests pin exactly that. With embed_forward enabled, each rank
// instead serves through its own EmbedForward over a per-rank EmbedCache
// (entries keyed by snapshot version, invalidated on publish): owner
// routing concentrates a vertex's repeat queries on one rank, so per-rank
// caches see the full hit rate without any cross-rank coherence. Halo rows
// in embed mode are read from the shared in-process feature store (wire-
// accurate halo *embedding* fetch is a ROADMAP follow-on).
//
// ShardedServer implements ServingBackend, so a ReplicaGroup can replicate
// it (ComposedTier: R replicas x P shards) and the Router / traffic
// generators drive it exactly like a single InferenceServer.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "comm/world.hpp"
#include "graph/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape.hpp"
#include "obs/trace.hpp"
#include "partition/libra.hpp"
#include "serve/backend.hpp"
#include "serve/embed_cache.hpp"
#include "serve/feature_cache.hpp"
#include "serve/model_snapshot.hpp"
#include "serve/prefetch.hpp"
#include "serve/request_queue.hpp"
#include "serve/tier_config.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

/// Sharded-tier config: the shared TierConfig knobs (queue_capacity and the
/// caches apply per rank) plus the halo prefetch ring depth.
struct ShardedServeConfig : TierConfig {
  /// In-flight halo batches per rank: 1 = synchronous fetch, 2 = the classic
  /// double buffer, d = a ring pipelining d-1 batches of fetch latency
  /// behind compute (deeper rings suit slower interconnects). Answers are
  /// bitwise-identical at every depth.
  int prefetch_depth = 1;
};

class ShardedServer : public ServingBackend {
 public:
  /// One serving rank per partition part, over `dataset`'s features split by
  /// the vertex-cut. The dataset and partition-derived state must outlive
  /// the server; the World of partition.num_parts ranks is owned internally.
  ShardedServer(const Dataset& dataset, const EdgePartition& partition,
                ShardedServeConfig config);
  ~ShardedServer() override;

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  void publish(std::shared_ptr<const ModelSnapshot> snapshot) override;
  std::shared_ptr<const ModelSnapshot> snapshot() const override { return holder_.get(); }

  /// Spawns the rank loops (one thread per partition part). Requires a
  /// published snapshot.
  void start() override;
  /// Closes the per-rank queues, drains admitted requests, joins the rank
  /// threads. Idempotent.
  void stop() override;

  using ServingBackend::submit;
  /// Routes the request to the owner rank of `vertex`; false (a rejection)
  /// when that rank's bounded queue is full.
  bool submit(vid_t vertex, const RequestMeta& meta,
              std::function<void(InferResult&&)> done) override;

  std::size_t queue_depth() const override;
  void drain() override;
  bool accepting() const override {
    return config_.queue_capacity > 0 && running_.load(std::memory_order_acquire);
  }
  double mean_service_seconds() const override;
  /// One serving loop per rank.
  int concurrency() const override { return num_parts_; }
  const Dataset& dataset() const override { return dataset_; }
  /// Aggregate over ranks; children[r] is rank r's detail (batch and halo
  /// counters, per-rank caches, queue depth).
  BackendStats stats() const override;
  /// ScrapeSource: fold the shard's stage histograms (including halo_wait)
  /// and tenant counters into `out`.
  void scrape(obs::MetricsSnapshot& out) const override;
  /// Completed sampled stage traces across all ranks (one shared sink).
  void collect_traces(std::vector<obs::Trace>& out) const override;
  const obs::TraceSink& trace_sink() const { return trace_sink_; }

  /// Version-barriered graph mutation across the P ranks: a pause rendezvous
  /// parks every rank at a batch boundary (prefetch ring drained, classic
  /// ranks still answering peers' halo requests while they wait), then the
  /// apply mutates the shared dataset, the updated feature rows are
  /// re-materialized into the owning ranks' local shards, and each rank's
  /// caches are invalidated per the notice (targeted epoch advance unless
  /// full_flush). Queues stay open throughout — requests admitted during the
  /// window are served after it, on the new graph.
  void apply_graph_update(const std::function<void()>& apply,
                          const GraphUpdateNotice& notice) override;
  std::uint64_t graph_epoch() const override {
    return graph_epoch_.load(std::memory_order_acquire);
  }

  int num_ranks() const { return num_parts_; }
  /// Vertex -> owning rank (the routing table).
  const std::vector<part_t>& owners() const { return owner_; }

 private:
  /// One rank loop's books in metrics_, labelled rank="<r>": its batch
  /// tallies, the halo traffic its HaloFetcher adds into, its caches'
  /// counters and its embed evaluator's work. The handles outlive every
  /// start()/stop() cycle, so a restarted rank keeps counting.
  struct RankCounters {
    RankCounters(obs::MetricsRegistry& registry, const obs::Labels& rank,
                 const TierConfig& config);
    BatchCounters batch;
    HaloCounters halo;
    CacheCounters feature, halo_cache;
    std::vector<CacheCounters> embed;  // per level; empty without an embed cache
    std::optional<EmbedWork> work;     // embed_forward only
  };

  /// Graph-update rendezvous at a batch boundary (prefetch ring drained):
  /// counts into the pause and waits it out, running `while_parked` between
  /// polls.
  void park_for_update(const std::function<void()>& while_parked);
  void rank_loop(Communicator& comm);
  void run_classic_rank(Communicator& comm, part_t me);
  void run_embed_rank(Communicator& comm, part_t me);
  void finish_batch(std::vector<InferRequest>& batch, const DenseMatrix& logits,
                    std::uint64_t snapshot_version, ServeClock::time_point service_begin,
                    RankCounters& counters, const obs::BatchStageTimes& stages);
  EmbedCache* embed_cache_ptr(part_t rank) const;

  const Dataset& dataset_;
  /// Immutable mirror of dataset_.num_vertices(): the streamed-update
  /// contract fixes the vertex set at construction, and submit() must not
  /// read through dataset_.graph while a barrier is move-assigning it.
  const vid_t num_vertices_;
  ShardedServeConfig config_;
  part_t num_parts_;
  std::vector<part_t> owner_;
  /// Vertex -> its row in its owner's shard, local_feats_[owner_[v]].
  std::vector<std::size_t> owned_row_;
  std::vector<DenseMatrix> local_feats_;

  // The shard's one set of books. Tenants are accounted where requests enter
  // and leave (ranks are an implementation detail of the shard), batch, halo
  // and cache tallies per rank; one trace sink is shared by every rank
  // thread. Declared before the caches, which count into it.
  obs::MetricsRegistry metrics_;
  obs::StageMetrics stage_metrics_{metrics_, "sharded"};
  obs::Counter& publishes_{metrics_.counter("distgnn_sharded_publishes_total")};
  std::vector<RankCounters> rank_counters_;  // one per rank, fixed at construction
  obs::TraceSink trace_sink_;

  World world_;
  std::thread driver_;  // runs world_.run(rank_loop) so start() returns
  std::vector<std::unique_ptr<BoundedRequestQueue>> queues_;
  std::vector<std::unique_ptr<ShardedFeatureCache>> caches_;
  mutable util::Mutex embed_mutex_;
  std::vector<std::unique_ptr<EmbedCache>> embed_caches_ GUARDED_BY(embed_mutex_);
  SnapshotHolder holder_;

  std::atomic<bool> running_{false};
  std::atomic<int> done_ranks_{0};

  /// Graph-update pause rendezvous (apply_graph_update): ranks park once
  /// their ring is drained; the updater waits for all P, mutates, reopens.
  std::atomic<bool> pause_flag_{false};
  util::Mutex pause_mutex_;
  util::CondVar pause_cv_;
  int paused_ranks_ GUARDED_BY(pause_mutex_) = 0;
  std::atomic<std::uint64_t> graph_epoch_{0};

  std::atomic<std::uint64_t> next_id_{0};
  /// Admitted requests whose batch has not finished replying: the drain()
  /// signal. Raised before the queue push, lowered after the callbacks.
  std::atomic<std::uint64_t> in_flight_{0};
};

/// Vertex -> owning rank from a vertex-cut partition: the root part of
/// place_vertices, whose clone carries owns_label in build_partitions.
/// Vertices absent from every partition (isolated) fall back to round-robin
/// so every vertex has a feature home.
std::vector<part_t> vertex_owners(const EdgeList& edges, const EdgePartition& partition,
                                  vid_t num_vertices);

}  // namespace distgnn::serve
