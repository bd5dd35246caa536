#include "core/single_socket_trainer.hpp"

#include <chrono>

namespace distgnn {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

SingleSocketTrainer::SingleSocketTrainer(const Dataset& dataset, TrainConfig config)
    : dataset_(dataset),
      config_(config),
      model_(dataset.feature_dim(), config.hidden_dim, dataset.num_classes, config.num_layers,
             config.seed),
      optimizer_(config.lr, config.momentum, config.weight_decay) {
  const CsrMatrix& in_csr = dataset.graph.in_csr();
  num_blocks_ = config_.num_blocks > 0
                    ? config_.num_blocks
                    : auto_num_blocks(dataset.num_vertices(),
                                      static_cast<std::size_t>(dataset.feature_dim()));
  if (config_.ap_mode == ApMode::kOptimized) {
    blocked_in_ = BlockedCsr(in_csr, num_blocks_);
    blocked_out_ = BlockedCsr(dataset.graph.out_csr(), num_blocks_);
  } else {
    out_csr_ = dataset.graph.out_csr();
  }

  const auto n = static_cast<std::size_t>(dataset.num_vertices());
  inv_norm_.resize_discard(n, 1);
  for (std::size_t v = 0; v < n; ++v)
    inv_norm_.at(v, 0) = 1.0f / (static_cast<real_t>(in_csr.degree(static_cast<vid_t>(v))) + 1.0f);

  acts_.resize(static_cast<std::size_t>(config_.num_layers) + 1);
  aggs_.resize(static_cast<std::size_t>(config_.num_layers));
  acts_[0] = dataset.features;
}

void SingleSocketTrainer::forward() {
  const auto n = static_cast<std::size_t>(dataset_.num_vertices());
  ApConfig ap;
  ap.binary = BinaryOp::kCopyLhs;
  ap.reduce = ReduceOp::kSum;
  for (int l = 0; l < config_.num_layers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    aggs_[li].resize_discard(n, acts_[li].cols(), 0);
    if (config_.ap_mode == ApMode::kOptimized) {
      aggregate_prepartitioned(blocked_in_, acts_[li].cview(), {}, aggs_[li].view(), ap);
    } else {
      aggregate_baseline(dataset_.graph.in_csr(), acts_[li].cview(), {}, aggs_[li].view(),
                         ap.binary, ap.reduce);
    }
    acts_[li + 1].resize_discard(n, model_.layer(l).out_dim());
    model_.layer(l).forward_from_aggregate(acts_[li].cview(), aggs_[li].cview(), inv_norm_.cview(),
                                           acts_[li + 1].view());
  }
}

EpochStats SingleSocketTrainer::train_epoch() {
  EpochStats stats;
  const auto epoch_begin = std::chrono::steady_clock::now();
  const auto n = static_cast<std::size_t>(dataset_.num_vertices());

  // ---- forward (AP timed per layer) ----
  ApConfig ap;
  for (int l = 0; l < config_.num_layers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    auto t0 = std::chrono::steady_clock::now();
    aggs_[li].resize_discard(n, acts_[li].cols(), 0);
    if (config_.ap_mode == ApMode::kOptimized) {
      aggregate_prepartitioned(blocked_in_, acts_[li].cview(), {}, aggs_[li].view(), ap);
    } else {
      aggregate_baseline(dataset_.graph.in_csr(), acts_[li].cview(), {}, aggs_[li].view(),
                         ap.binary, ap.reduce);
    }
    stats.ap_seconds += seconds_since(t0);

    t0 = std::chrono::steady_clock::now();
    acts_[li + 1].resize_discard(n, model_.layer(l).out_dim());
    model_.layer(l).forward_from_aggregate(acts_[li].cview(), aggs_[li].cview(), inv_norm_.cview(),
                                           acts_[li + 1].view());
    stats.mlp_seconds += seconds_since(t0);
  }

  // ---- loss ----
  auto t0 = std::chrono::steady_clock::now();
  stats.loss = loss_.forward(acts_.back().cview(), dataset_.labels, dataset_.train_mask);
  model_.zero_grad();
  d_upper_.resize_discard(n, acts_.back().cols());
  loss_.backward(d_upper_.view());
  stats.mlp_seconds += seconds_since(t0);

  // ---- backward ----
  for (int l = config_.num_layers - 1; l >= 0; --l) {
    t0 = std::chrono::steady_clock::now();
    // The input layer computes only its weight gradients: nothing needs the
    // gradient w.r.t. the input features.
    MatrixView dscaled;
    if (l > 0) {
      dscaled_.resize_discard(n, model_.layer(l).in_dim());
      dscaled = dscaled_.view();
    }
    model_.layer(l).backward_to_scaled(d_upper_.cview(), dscaled);
    stats.mlp_seconds += seconds_since(t0);

    if (l == 0) break;

    // dH = dscaled + A^T dscaled (self + neighbour paths).
    t0 = std::chrono::steady_clock::now();
    dH_.resize_discard(n, dscaled_.cols(), 0);
    if (config_.ap_mode == ApMode::kOptimized) {
      aggregate_prepartitioned(blocked_out_, dscaled_.cview(), {}, dH_.view(), ap);
    } else {
      aggregate_baseline(out_csr_, dscaled_.cview(), {}, dH_.view(), ap.binary, ap.reduce);
    }
    const std::size_t total = dH_.size();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < total; ++i) dH_.data()[i] += dscaled_.data()[i];
    stats.ap_seconds += seconds_since(t0);
    d_upper_ = dH_;
  }

  t0 = std::chrono::steady_clock::now();
  auto params = model_.params();
  optimizer_.step(params);
  stats.mlp_seconds += seconds_since(t0);

  stats.total_seconds = seconds_since(epoch_begin);
  return stats;
}

double SingleSocketTrainer::evaluate(const std::vector<std::uint8_t>& mask) {
  forward();
  return masked_accuracy(acts_.back().cview(), dataset_.labels, mask).accuracy();
}

}  // namespace distgnn
