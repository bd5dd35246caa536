// Replicated serving tier: one logical shard served by N replica backends.
//
// A ReplicaGroup owns N ServingBackends over the same dataset. The default
// constructor builds N InferenceServers from one ServeConfig (critically:
// the same sample_seed), so every replica answers every request
// bitwise-identically to a single server — routing is free to place a
// request anywhere. The factory constructor generalizes the members: a
// ComposedTier replicates ShardedServers through it, and tests can mix
// heterogeneous backends behind one Router.
//
// The group owns snapshot publication as a group operation with a *version
// barrier*: publish() waits for every admitted request to complete, swaps
// all replicas to the new snapshot, and only then re-opens admission.
// Because a client batch is admitted atomically (the Router — or the
// group's own infer_batch — holds all of its admission slots before the
// first submit), no batch can ever contain answers from two snapshot
// versions.
//
// For multi-process deployments, broadcast_snapshot() is the publication
// primitive: the publisher rank flattens the weights and version into one
// payload, broadcasts it over the World runtime, and every replica rank
// reconstructs a bitwise-identical ModelSnapshot. publish_broadcast() runs
// exactly that wire path under the version barrier — one rank per replica —
// which is how a composed tier publishes across its R×P grid.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "comm/world.hpp"
#include "graph/datasets.hpp"
#include "serve/backend.hpp"
#include "serve/inference_server.hpp"
#include "util/sync.hpp"

namespace distgnn::serve {

class ReplicaGroup : public ServingBackend {
 public:
  /// Builds any backend; called once per replica index at construction.
  using ReplicaFactory = std::function<std::unique_ptr<ServingBackend>(int replica)>;

  /// Homogeneous group: every replica is an InferenceServer sharing
  /// `dataset` (features are not copied) with an identical ServeConfig —
  /// the source of the bitwise-equality guarantee.
  ReplicaGroup(const Dataset& dataset, ServeConfig config, int num_replicas);
  /// Generic group: replicas come from `factory`. All members must serve
  /// `dataset` (answers are expected interchangeable; the factory owns that
  /// contract).
  ReplicaGroup(const Dataset& dataset, int num_replicas, const ReplicaFactory& factory);
  ~ReplicaGroup() override;

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  /// Version-barriered group publish: blocks new admissions, drains every
  /// admitted request, hot-swaps all replicas, re-opens admission. After it
  /// returns, every replica serves `snapshot` and no in-flight answer mixes
  /// versions with anything admitted afterwards.
  void publish(std::shared_ptr<const ModelSnapshot> snapshot) override;
  /// Same barrier, but the snapshot travels the group-broadcast wire path:
  /// replica 0's rank flattens, broadcast_v distributes, every other rank
  /// reconstructs via ModelSnapshot::from_flat (bitwise-identical) and
  /// publishes to its own replica. The publication path a real multi-process
  /// deployment exercises, compressed into one call.
  void publish_broadcast(std::shared_ptr<const ModelSnapshot> snapshot);
  std::shared_ptr<const ModelSnapshot> snapshot() const override;

  void start() override;
  void stop() override;

  using ServingBackend::submit;
  /// Policy-free round-robin placement (the Router layers real policies and
  /// admission control on top; this is the plain ServingBackend view of the
  /// group). Holds one admission slot for the request's lifetime, so the
  /// publish barrier still covers it.
  bool submit(vid_t vertex, const RequestMeta& meta,
              std::function<void(InferResult&&)> done) override;
  using ServingBackend::infer_batch;
  /// Whole batch under ONE admission epoch: every answer carries the same
  /// snapshot version.
  std::vector<std::optional<InferResult>> infer_batch(std::span<const vid_t> vertices,
                                                      const RequestMeta& meta) override;

  /// Graph mutation under the group's version barrier: drains every admitted
  /// request, runs the real apply on replica 0 only (all replicas share the
  /// dataset, so it must be mutated exactly once), then delivers an
  /// apply-less notice to the siblings so each invalidates its own caches.
  /// Replica 0 goes first — the mutation happens-before every invalidation.
  void apply_graph_update(const std::function<void()>& apply,
                          const GraphUpdateNotice& notice) override;
  std::uint64_t graph_epoch() const override { return replicas_.front()->graph_epoch(); }

  std::size_t queue_depth() const override;
  void drain() override;
  bool accepting() const override;
  double mean_service_seconds() const override;
  int concurrency() const override;
  const Dataset& dataset() const override { return dataset_; }
  BackendStats stats() const override;
  /// ScrapeSource: the group's own publish counter plus every replica's
  /// scrape — sibling replicas emit the same series, which merge by
  /// (name, labels) into group-wide totals.
  void scrape(obs::MetricsSnapshot& out) const override;
  void collect_traces(std::vector<obs::Trace>& out) const override;

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  ServingBackend& replica(int i) { return *replicas_[static_cast<std::size_t>(i)]; }
  const ServingBackend& replica(int i) const { return *replicas_[static_cast<std::size_t>(i)]; }

  /// Version currently served by every replica (0 before the first publish).
  std::uint64_t version() const;
  std::uint64_t publishes() const;

  /// True while a publish / graph-update barrier is closed. The health
  /// monitor's barrier-stuck watchdog polls this: a wedged barrier parks
  /// inside the cv wait (mutex released), so the read never blocks on it.
  bool publishing() const {
    util::MutexLock lock(mutex_);
    return publishing_;
  }

  /// Admission epoch gate (Router protocol). begin_requests(n) reserves n
  /// admission slots atomically, blocking while a publish barrier is in
  /// progress — which is what pins a whole client batch to one version.
  /// Every reserved slot must be released by exactly one end_request(),
  /// whether the request was admitted (on completion) or shed (immediately).
  void begin_requests(std::size_t n);
  void end_request();

 private:
  /// Runs `swap` (which must publish to every replica) under the version
  /// barrier: one publisher at a time, all admitted traffic drained first.
  void publish_under_barrier(std::uint64_t version,
                             const std::function<void()>& swap);
  int pick_round_robin();

  const Dataset& dataset_;
  std::vector<std::unique_ptr<ServingBackend>> replicas_;

  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::size_t outstanding_ GUARDED_BY(mutex_) = 0;  // admission slots handed out, not yet released
  bool publishing_ GUARDED_BY(mutex_) = false;
  std::uint64_t version_ GUARDED_BY(mutex_) = 0;
  std::uint64_t publishes_ GUARDED_BY(mutex_) = 0;
  std::atomic<std::uint64_t> rr_next_{0};
};

/// Group snapshot publication over a World: `root` flattens its snapshot
/// (weights + version) and broadcasts; every other rank reconstructs and
/// returns a bitwise-identical snapshot. The root passes its snapshot in,
/// the other ranks pass nullptr.
std::shared_ptr<const ModelSnapshot> broadcast_snapshot(
    Communicator& comm, const ModelSpec& spec,
    std::shared_ptr<const ModelSnapshot> snapshot, int root);

}  // namespace distgnn::serve
