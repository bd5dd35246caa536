// Mixed open-loop traffic: reads and graph writes against one backend.
//
// run_mixed_open_loop drives the read side through the serving open-loop
// driver (serve::run_open_loop — requests land at scheduled instants
// whether or not the server keeps up) while a writer thread replays a
// pre-generated delta stream at its own arrival instants (Poisson or bursty
// MMPP — a write burst is the interesting case, since each delta costs a
// barrier). The report pairs the usual read-side LoadReport with the write
// side's apply-latency quantiles and the final served epoch, which is what
// bench_stream's freshness-vs-QPS sweeps and the CI streaming smoke plot
// and assert against.
#pragma once

#include <cstdint>
#include <span>

#include "serve/traffic_gen.hpp"
#include "stream/delta_publisher.hpp"
#include "stream/graph_delta.hpp"

namespace distgnn::stream {

struct MixedLoopConfig {
  serve::LoadStream reads;
  /// Delta arrival process; one delta publishes per arrival until the
  /// stream is exhausted.
  serve::ArrivalConfig writes;
};

struct MixedLoopReport {
  serve::LoadReport reads;
  std::uint64_t deltas_published = 0;
  std::uint64_t final_epoch = 0;
  double apply_mean_ms = 0;
  double apply_p50_ms = 0;
  double apply_p99_ms = 0;
};

/// Publishes `deltas` through `publisher` at the write arrival instants
/// while the calling thread drives the open-loop read workload against
/// `backend`. Returns once both sides finish (all reads drained, every
/// delta published).
MixedLoopReport run_mixed_open_loop(serve::ServingBackend& backend, DeltaPublisher& publisher,
                                    std::span<const GraphDelta> deltas,
                                    const MixedLoopConfig& config);

}  // namespace distgnn::stream
