// Replicated x sharded serving: R ShardedServer replicas over P shards.
//
// The two scaling axes finally stack. Sharding (ShardedServer) is memory
// scaling — each of P ranks holds 1/P of the feature store and serves its
// owned vertices, reaching the rest through the halo protocol. Replication
// (ReplicaGroup) is read scaling — R identical backends answer any request
// interchangeably. ComposedTier replicates whole sharded deployments: R
// ShardedServers of P ranks each (R·P serving ranks total), fronted by the
// same Router policies (round-robin / least-outstanding / p2c) and
// deadline-aware admission control the flat replicated tier uses — the
// ServingBackend contract is what lets the Router treat a 2-rank sharded
// deployment exactly like a single server.
//
// Publication is one group operation over the whole R×P grid: the version
// barrier (ReplicaGroup::publish_broadcast) drains every admitted request,
// then the snapshot travels the broadcast_snapshot wire path — replica 0
// publishes, every other replica reconstructs a bitwise-identical model
// from the flattened payload — and only then does admission re-open. A
// client batch is admitted under one epoch, so no batch ever mixes snapshot
// versions across the grid.
//
// Every replica samples with the same request_rng(sample_seed, vertex)
// stream, so ComposedTier answers are bitwise-equal to a single
// InferenceServer over the same snapshot — the property the composed bench
// and CI smoke pin at (R, P) = (2, 2).
#pragma once

#include <cstdint>
#include <memory>

#include "partition/libra.hpp"
#include "serve/backend.hpp"
#include "serve/replica_group.hpp"
#include "serve/router.hpp"
#include "serve/sharded_server.hpp"

namespace distgnn::obs {
class HealthMonitor;
}  // namespace distgnn::obs

namespace distgnn::serve {

struct ComposedConfig {
  int replicas = 2;             // R: identical sharded deployments
  ShardedServeConfig shard;     // per-replica sharded config (P = partition parts)
  RoutePolicy policy = RoutePolicy::kPowerOfTwo;
  AdmissionConfig admission;
};

class ComposedTier : public ServingBackend {
 public:
  /// R replicas, each a ShardedServer over `partition` (P = num_parts). The
  /// dataset and the tier share lifetimes; the partition is only read at
  /// construction.
  ComposedTier(const Dataset& dataset, const EdgePartition& partition, ComposedConfig config);
  /// Stops the group first: router_ is declared after group_ (destroyed
  /// first), and in-flight completion callbacks write through the Router.
  ~ComposedTier() override { group_.stop(); }

  ComposedTier(const ComposedTier&) = delete;
  ComposedTier& operator=(const ComposedTier&) = delete;

  /// Version-barriered grid publish via the broadcast wire path (see file
  /// comment). After it returns every rank of every replica serves
  /// `snapshot`'s version.
  void publish(std::shared_ptr<const ModelSnapshot> snapshot) override;
  std::shared_ptr<const ModelSnapshot> snapshot() const override { return group_.snapshot(); }

  void start() override { group_.start(); }
  void stop() override { group_.stop(); }

  using ServingBackend::submit;
  /// Routed + admission-controlled submission: false means the request was
  /// shed (budget empty, deadline unmeetable, priority lane, or queue full)
  /// — exactly the Router contract the flat replicated tier exposes.
  bool submit(vid_t vertex, const RequestMeta& meta,
              std::function<void(InferResult&&)> done) override;
  using ServingBackend::infer_batch;
  /// Whole batch under one admission epoch (single snapshot version).
  std::vector<std::optional<InferResult>> infer_batch(std::span<const vid_t> vertices,
                                                      const RequestMeta& meta) override;

  /// Graph mutation over the whole R×P grid, under the group's version
  /// barrier: replica 0's ShardedServer runs the real apply (the dataset is
  /// shared), every replica parks its ranks and invalidates per the notice.
  void apply_graph_update(const std::function<void()>& apply,
                          const GraphUpdateNotice& notice) override {
    group_.apply_graph_update(apply, notice);
  }
  std::uint64_t graph_epoch() const override { return group_.graph_epoch(); }

  std::size_t queue_depth() const override { return group_.queue_depth(); }
  void drain() override { group_.drain(); }
  bool accepting() const override { return group_.accepting(); }
  double mean_service_seconds() const override { return group_.mean_service_seconds(); }
  int concurrency() const override { return group_.concurrency(); }
  const Dataset& dataset() const override { return group_.dataset(); }
  /// Aggregate over the grid: children[r] is replica r (whose own children
  /// are its P ranks); rejected is the Router's shed count.
  BackendStats stats() const override;
  /// ScrapeSource: one walk of the whole tier — router counters, group
  /// publishes, and every replica's (sharded) stage histograms. The Router
  /// already recurses into the group, so this delegates to it.
  void scrape(obs::MetricsSnapshot& out) const override { router_.scrape(out); }
  void collect_traces(std::vector<obs::Trace>& out) const override {
    group_.collect_traces(out);
  }

  int num_replicas() const { return group_.num_replicas(); }
  int num_shards() const { return num_shards_; }
  std::uint64_t version() const { return group_.version(); }

  /// The admission/routing front; open-loop load submits through it.
  Router& router() { return router_; }
  ReplicaGroup& group() { return group_; }

  /// Wires the tier into a HealthMonitor: the tier as a scrape source, a
  /// queue-saturation probe over the grid's aggregate queue capacity, a
  /// barrier-stuck probe over the group's publish barrier, and one SLO per
  /// admission tenant with a deadline (burn-rate rule). The tier must
  /// outlive the monitor's last tick.
  void configure_health(obs::HealthMonitor& monitor, const std::string& name = "tier") const;

 private:
  int num_shards_;
  std::size_t total_queue_capacity_;
  std::vector<TenantSlo> tenant_slos_;  // admission tenants, kept for health wiring
  ReplicaGroup group_;
  Router router_;
};

}  // namespace distgnn::serve
