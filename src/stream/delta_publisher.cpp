#include "stream/delta_publisher.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/health.hpp"
#include "serve/model_snapshot.hpp"

namespace distgnn::stream {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

DeltaPublisher::DeltaPublisher(Dataset& dataset, serve::ServingBackend& backend,
                               StreamConfig config, EdgePartition* partition)
    : dataset_(dataset), backend_(backend), config_(config), partition_(partition) {
  if (&backend.dataset() != &dataset)
    throw std::invalid_argument("DeltaPublisher: backend serves a different dataset");
  if (partition_ && partition_->edge_owner.size() != dataset_.graph.coo().edges.size())
    throw std::invalid_argument("DeltaPublisher: partition misaligned with dataset edges");
}

std::uint64_t DeltaPublisher::publish(const GraphDelta& delta) {
  // Serializes concurrent publishers only. The state mutex_ is taken for
  // short field updates below, never across the barrier — a health scrape
  // or epoch() probe must not block behind a graph swap (lock order:
  // publish_mutex_ before mutex_, see ACQUIRED_BEFORE in the header).
  util::MutexLock publish_lock(publish_mutex_);
  const auto prepare_begin = Clock::now();

  // Prepare everything outside the barrier: readers serve epoch e from the
  // untouched dataset while we build e+1 on the side.
  const std::size_t f = static_cast<std::size_t>(dataset_.feature_dim());
  for (const FeatureUpdate& fu : delta.feature_updates) {
    if (fu.vertex < 0 || fu.vertex >= dataset_.num_vertices())
      throw std::invalid_argument("DeltaPublisher: feature update vertex out of range");
    if (fu.row.size() != f)
      throw std::invalid_argument("DeltaPublisher: feature row width != feature_dim");
  }
  EdgeList coo = dataset_.graph.coo();
  std::vector<int> edge_types = dataset_.edge_types;
  const DeltaApplyStats applied = apply_delta_edges(coo, edge_types, delta);
  if (partition_ && config_.update_partition)
    extend_partition_libra(*partition_, coo, applied.removed_edge_indices,
                           delta.edge_inserts.size());
  Graph prepared(std::move(coo));
  (void)prepared.in_csr();  // force both CSRs now, not under the barrier
  (void)prepared.out_csr();

  const std::shared_ptr<const serve::ModelSnapshot> snapshot = backend_.snapshot();
  const int num_layers = snapshot ? snapshot->spec().num_layers : 0;
  serve::GraphUpdateNotice notice;
  {
    util::MutexLock lock(mutex_);
    notice.epoch = delta.epoch != 0 ? std::max(delta.epoch, epoch_ + 1) : epoch_ + 1;
  }
  notice.full_flush = config_.full_flush;
  notice.dirty_layers = compute_dirty_sets(prepared, delta, num_layers);
  {
    std::vector<char> seen(static_cast<std::size_t>(dataset_.num_vertices()), 0);
    for (const FeatureUpdate& fu : delta.feature_updates) {
      if (seen[static_cast<std::size_t>(fu.vertex)]) continue;
      seen[static_cast<std::size_t>(fu.vertex)] = 1;
      notice.features.push_back(fu.vertex);
    }
  }
  const auto prepare_end = Clock::now();

  // Barrier window: graph move-assign (CSRs already built — a pointer swap),
  // feature-row overwrites, then the backend's own cache invalidation.
  double apply_seconds = 0;
  auto apply_begin = prepare_end;
  auto apply_end = prepare_end;
  backend_.apply_graph_update(
      [&] {
        apply_begin = Clock::now();
        dataset_.graph = std::move(prepared);
        dataset_.edge_types = std::move(edge_types);
        for (const FeatureUpdate& fu : delta.feature_updates)
          std::copy(fu.row.begin(), fu.row.end(),
                    dataset_.features.row(static_cast<std::size_t>(fu.vertex)));
        apply_end = Clock::now();
        apply_seconds = seconds_between(apply_begin, apply_end);
      },
      notice);
  const auto barrier_end = Clock::now();

  {
    util::MutexLock lock(mutex_);
    epoch_ = notice.epoch;
  }
  deltas_.add();
  edges_inserted_.add(applied.edges_inserted);
  edges_deleted_.add(applied.edges_deleted);
  features_updated_.add(delta.feature_updates.size());
  for (const auto& layer : notice.dirty_layers) dirty_entries_.add(layer.size());
  full_flush_equivalent_.add(static_cast<std::uint64_t>(dataset_.num_vertices()) *
                             static_cast<std::uint64_t>(std::max(0, num_layers)));

  stage_metrics_.observe_stage(obs::Stage::kRepartition, /*tenant=*/0,
                               seconds_between(prepare_begin, prepare_end));
  stage_metrics_.observe_stage(obs::Stage::kApply, /*tenant=*/0, apply_seconds);
  stage_metrics_.observe_stage(
      obs::Stage::kInvalidate, /*tenant=*/0,
      std::max(0.0, seconds_between(prepare_end, barrier_end) - apply_seconds));

  // Every publication leaves a trace on the stream track (deltas are rare
  // relative to requests, so no sampling): prepare as kRepartition, the
  // in-barrier mutation as kApply, the rest of the barrier window —
  // rendezvous plus cache invalidation — as kInvalidate.
  obs::Trace trace;
  trace.request_id = notice.epoch;
  trace.tenant = obs::kStreamTrack;
  trace.begin_seconds = obs::TraceContext::seconds(prepare_begin);
  trace.end_seconds = obs::TraceContext::seconds(barrier_end);
  trace.spans[static_cast<std::size_t>(obs::Stage::kRepartition)] =
      obs::make_span(prepare_begin, prepare_end);
  trace.spans[static_cast<std::size_t>(obs::Stage::kApply)] =
      obs::make_span(apply_begin, apply_end);
  trace.spans[static_cast<std::size_t>(obs::Stage::kInvalidate)] =
      obs::make_span(apply_end, barrier_end);
  trace_sink_.publish(trace);
  return notice.epoch;
}

std::uint64_t DeltaPublisher::epoch() const {
  util::MutexLock lock(mutex_);
  return epoch_;
}

StreamStats DeltaPublisher::stats() const {
  StreamStats s;
  s.deltas_published = deltas_.value();
  s.edges_inserted = edges_inserted_.value();
  s.edges_deleted = edges_deleted_.value();
  s.features_updated = features_updated_.value();
  s.dirty_entries = dirty_entries_.value();
  s.full_flush_equivalent = full_flush_equivalent_.value();
  return s;
}

void DeltaPublisher::scrape(obs::MetricsSnapshot& out) const { metrics_.scrape(out); }

void DeltaPublisher::collect_traces(std::vector<obs::Trace>& out) const {
  trace_sink_.collect(out);
}

void DeltaPublisher::configure_health(obs::HealthMonitor& monitor, const DeltaLog& log,
                                      const std::string& name) const {
  monitor.add_source(name, *this);
  monitor.add_epoch_probe(
      name, [this] { return epoch(); }, [&log] { return log.sealed_epochs(); });
}

}  // namespace distgnn::stream
