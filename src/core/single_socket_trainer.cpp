#include "core/single_socket_trainer.hpp"

#include <chrono>

#include "nn/metrics.hpp"
#include "util/stopwatch.hpp"

namespace distgnn {

namespace {

double wall_seconds() { return seconds_since({}); }

/// The program over the whole graph; every training row is a loss row.
FullBatchSage whole_graph(const Dataset& dataset, const TrainConfig& config) {
  const CsrMatrix& in_csr = dataset.graph.in_csr();
  std::vector<eid_t> in_degree(static_cast<std::size_t>(dataset.num_vertices()));
  for (std::size_t v = 0; v < in_degree.size(); ++v)
    in_degree[v] = in_csr.degree(static_cast<vid_t>(v));
  return FullBatchSage({.in_csr = in_csr,
                        .out_csr = dataset.graph.out_csr(),
                        .in_degree = in_degree,
                        .features = dataset.features.cview(),
                        .labels = dataset.labels,
                        .output_rows = dataset.train_mask,
                        .loss_rows = dataset.train_mask},
                       config, dataset.num_classes, wall_seconds);
}

}  // namespace

SingleSocketTrainer::SingleSocketTrainer(const Dataset& dataset, TrainConfig config)
    : dataset_(dataset), pass_(whole_graph(dataset, config)) {}

EpochStats SingleSocketTrainer::train_epoch() {
  const auto begin = std::chrono::steady_clock::now();
  PassTimes times;
  EpochStats stats;
  stats.loss = pass_.train_pass(/*divisor=*/0, times);
  pass_.step(times);
  stats.ap_seconds = times.ap + times.backward_ap;
  stats.mlp_seconds = times.mlp;
  stats.total_seconds = seconds_since(begin);
  return stats;
}

double SingleSocketTrainer::evaluate(const std::vector<std::uint8_t>& mask) {
  return masked_accuracy(pass_.forward_all(), dataset_.labels, mask).accuracy();
}

}  // namespace distgnn
