#include "serve/composed_tier.hpp"

#include <stdexcept>

#include "obs/health.hpp"

namespace distgnn::serve {

ComposedTier::ComposedTier(const Dataset& dataset, const EdgePartition& partition,
                           ComposedConfig config)
    : num_shards_(partition.num_parts),
      total_queue_capacity_(static_cast<std::size_t>(config.replicas) *
                            static_cast<std::size_t>(partition.num_parts) *
                            config.shard.queue_capacity),
      tenant_slos_(config.admission.tenants),
      group_(dataset, config.replicas,
             [&](int) { return std::make_unique<ShardedServer>(dataset, partition, config.shard); }),
      router_(group_, config.policy, config.admission) {}

void ComposedTier::publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  group_.publish_broadcast(std::move(snapshot));
}

bool ComposedTier::submit(vid_t vertex, const RequestMeta& meta,
                          std::function<void(InferResult&&)> done) {
  return router_.submit(vertex, meta, std::move(done));
}

std::vector<std::optional<InferResult>> ComposedTier::infer_batch(
    std::span<const vid_t> vertices, const RequestMeta& meta) {
  return router_.infer_batch(vertices, meta);
}

BackendStats ComposedTier::stats() const {
  BackendStats s = group_.stats();
  // Every loss in the tier passes through the Router: its sheds are the
  // tier's rejections, and its per-tenant lanes the authoritative accounting
  // (a leaf bounce of a staged request is re-parked and served later, so the
  // leaves' lanes would count it twice), replacing the leaves' view.
  RouterStats routed = router_.stats();
  s.rejected = routed.shed();
  s.tenants = std::move(routed.tenants);
  return s;
}

void ComposedTier::configure_health(obs::HealthMonitor& monitor,
                                    const std::string& name) const {
  monitor.add_source(name, *this);
  monitor.add_queue_probe(name, [this] { return queue_depth(); }, total_queue_capacity_);
  monitor.add_barrier_probe(name, [this] { return group_.publishing(); });
  for (std::size_t t = 0; t < tenant_slos_.size(); ++t) {
    const TenantSlo& slo = tenant_slos_[t];
    if (slo.deadline_seconds > 0)
      monitor.set_slo(static_cast<int>(t), slo.deadline_seconds, slo.slo_target);
  }
}

}  // namespace distgnn::serve
