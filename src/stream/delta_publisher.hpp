// DeltaPublisher: the write path of dynamic-graph serving.
//
// publish() turns a sealed GraphDelta into a version-barriered graph swap on
// any ServingBackend, with everything expensive done OUTSIDE the barrier:
// the post-delta edge list, both CSRs, the incrementally extended vertex-cut
// partition and the per-layer dirty sets are all prepared while readers keep
// serving the old graph. The barrier window (apply_graph_update) then only
// move-assigns the prepared Graph into the dataset, overwrites the updated
// feature rows, and lets the backend run its targeted invalidation — so
// read-side p99 during a sustained delta stream stays near the frozen
// baseline (the CI smoke pins < 1.5x).
//
// Freshness contract: a request admitted before the barrier sees epoch e in
// full; one admitted after sees e+1 in full; no request ever sees a mix —
// the backend's barrier (drained worker gate / pause rendezvous / group
// version barrier) is what makes the swap atomic from the reader's side,
// and the epoch folded into EmbedCache keys is what keeps pre-delta layer
// outputs from leaking into post-delta answers.
//
// Telemetry: per-delta kRepartition (prepare), kApply (barrier mutation)
// and kInvalidate (barrier remainder: rendezvous + cache walk) stage
// histograms under the "stream" layer, scrape-compatible with the shared
// bench/obs exposition (bench::attach_stage_counters).
#pragma once

#include <cstdint>
#include <functional>

#include "graph/datasets.hpp"
#include "obs/metrics.hpp"
#include "obs/scrape.hpp"
#include "obs/trace.hpp"
#include "partition/libra.hpp"
#include "serve/backend.hpp"
#include "stream/graph_delta.hpp"
#include "util/sync.hpp"

namespace distgnn::obs {
class HealthMonitor;
}  // namespace distgnn::obs

namespace distgnn::stream {

struct StreamConfig {
  /// A/B lever for bench_stream: blanket embed-cache invalidation per delta
  /// instead of the targeted dirty-set epoch advance.
  bool full_flush = false;
  /// Keep the vertex-cut aligned with the evolving edge list via
  /// extend_partition_libra (only meaningful when a partition is wired).
  bool update_partition = true;
};

/// Typed view of the publisher's distgnn_stream_* counters.
struct StreamStats {
  std::uint64_t deltas_published = 0;
  std::uint64_t edges_inserted = 0;
  std::uint64_t edges_deleted = 0;
  std::uint64_t features_updated = 0;
  /// Upper bound on targeted embed-cache evictions: sum of per-layer dirty
  /// set sizes across published deltas. Compare against
  /// full_flush_equivalent to see what blanket invalidation would cost.
  std::uint64_t dirty_entries = 0;
  /// |V| x num_layers per delta — the (vertex, layer) population a full
  /// flush abandons each time.
  std::uint64_t full_flush_equivalent = 0;
};

class DeltaPublisher : public obs::ScrapeSource {
 public:
  /// The dataset must be the one `backend` serves (the apply mutates it in
  /// place under the backend's barrier). `partition`, when given, is the
  /// evolving vertex-cut — extended incrementally so cold rebuilds and
  /// sharded comparisons stay constructible against the live edge list.
  DeltaPublisher(Dataset& dataset, serve::ServingBackend& backend, StreamConfig config = {},
                 EdgePartition* partition = nullptr);

  /// Applies one delta through the backend's version barrier. Serialized
  /// (one publisher mutation at a time); returns the epoch now served.
  std::uint64_t publish(const GraphDelta& delta);

  std::uint64_t epoch() const;
  StreamStats stats() const;

  /// ScrapeSource: the stream-layer stage histograms + delta counters, all
  /// from the publisher's registry.
  void scrape(obs::MetricsSnapshot& out) const override;
  /// Per-delta publication traces: repartition/apply/invalidate spans on the
  /// kStreamTrack tenant (request_id = epoch), so render_chrome_trace lays
  /// delta publication out as its own track next to request spans.
  void collect_traces(std::vector<obs::Trace>& out) const override;

  /// Wires the publisher into a HealthMonitor: the publisher as a scrape
  /// source plus the graph-epoch freshness probe — served epoch (last
  /// publish) vs `log`'s sealed head. Both this publisher and `log` must
  /// outlive the monitor's last tick.
  void configure_health(obs::HealthMonitor& monitor, const DeltaLog& log,
                        const std::string& name = "stream") const;

 private:
  Dataset& dataset_;
  serve::ServingBackend& backend_;
  StreamConfig config_;
  EdgePartition* partition_;

  /// Serializes publish() calls end to end; held across the serving
  /// barrier, so readers must never take it. Always acquired before mutex_.
  util::Mutex publish_mutex_ ACQUIRED_BEFORE(mutex_);
  mutable util::Mutex mutex_;
  std::uint64_t epoch_ GUARDED_BY(mutex_) = 0;

  obs::MetricsRegistry metrics_;
  obs::StageMetrics stage_metrics_{metrics_, "stream"};
  obs::Counter& deltas_{metrics_.counter("distgnn_stream_deltas_total")};
  obs::Counter& edges_inserted_{metrics_.counter("distgnn_stream_edges_inserted_total")};
  obs::Counter& edges_deleted_{metrics_.counter("distgnn_stream_edges_deleted_total")};
  obs::Counter& features_updated_{metrics_.counter("distgnn_stream_features_updated_total")};
  obs::Counter& dirty_entries_{metrics_.counter("distgnn_stream_dirty_entries_total")};
  obs::Counter& full_flush_equivalent_{
      metrics_.counter("distgnn_stream_full_flush_equivalent_total")};
  obs::TraceSink trace_sink_{/*ring_capacity=*/64, /*top_k=*/8};
};

}  // namespace distgnn::stream
