// Shared serving-tier configuration base.
//
// ServeConfig (single-process), ShardedServeConfig (P-rank sharded) and
// ComposedTier's per-replica shard config used to triplicate the same
// deadline/cache/batching knobs with drifting field names. TierConfig is the
// consolidation: every tier-shaped config derives from it, so a ModelRegistry
// entry configures one knob set regardless of which backend serves it, and a
// composed tier can slice a ServeConfig down to its shard knobs by copying
// the base.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "serve/tenant.hpp"

namespace distgnn::obs {
struct HealthConfig;
}  // namespace distgnn::obs

namespace distgnn::serve {

struct TierConfig {
  int max_batch = 8;
  std::chrono::microseconds max_batch_delay{200};
  std::size_t queue_capacity = 1024;  // per admission queue (per rank when sharded)
  std::vector<int> fanouts = {10, 10};  // input-most first; size == model layers
  std::uint64_t cache_bytes = 8ull << 20;
  int cache_shards = 8;
  /// Per-request sampling is seeded mix(sample_seed, vertex); every tier
  /// uses the same mix, which is what makes single-process, sharded and
  /// composed answers comparable bit for bit.
  std::uint64_t sample_seed = 1;

  /// Fraction of requests that carry a stage trace (0 = tracing off). The
  /// decision is deterministic in (request id, tenant) — obs::trace_sampled —
  /// so layers agree without coordination and tests can pin the sampled set.
  double trace_sample_rate = 0;

  /// Embedding-cached serving: when true, requests run through EmbedForward
  /// (canonical per-(vertex, layer) sampling) and freshly computed layer
  /// outputs are memoized in an EmbedCache keyed by (vertex, layer, snapshot
  /// version). Answers are bitwise-stable across cache state but use a
  /// different sampling stream than the classic path.
  bool embed_forward = false;
  std::uint64_t embed_cache_bytes = 32ull << 20;
  int embed_cache_shards = 8;

  /// Per-tenant SLO override for registry entries built from this config:
  /// ModelRegistry::add_server reads the deadline/weight/budget for the
  /// entry's lane from here, so a tenant's knobs travel with its tier config
  /// instead of a parallel structure.
  TenantSlo slo;

  /// Health-monitor knobs (make_health_config reads these): the background
  /// scrape cadence and the SRE dual burn-rate windows evaluated against
  /// slo.deadline_seconds / slo.slo_target.
  double health_scrape_period_seconds = 0.05;
  double health_fast_window_seconds = 1.0;
  double health_slow_window_seconds = 6.0;
};

/// Translates a tier's health knobs into a HealthMonitor config (everything
/// else stays at HealthConfig defaults). Defined in model_registry.cpp.
obs::HealthConfig make_health_config(const TierConfig& config);

}  // namespace distgnn::serve
