#include "core/single_socket_trainer.hpp"

#include <chrono>
#include <utility>

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
  }

  const auto n = static_cast<std::size_t>(dataset.num_vertices());
  inv_norm_.resize_discard(n, 1);
  for (std::size_t v = 0; v < n; ++v)
    inv_norm_.at(v, 0) = 1.0f / (static_cast<real_t>(in_csr.degree(static_cast<vid_t>(v))) + 1.0f);

  combined_.resize(static_cast<std::size_t>(config_.num_layers));
  acts_.resize(static_cast<std::size_t>(config_.num_layers));

  // Layer 0's input is constant: aggregate and combine it once.
  const ConstMatrixView features = dataset.features.cview();
  const auto t0 = std::chrono::steady_clock::now();
  aggregate_over(/*transpose=*/false, features, combined_[0]);
  input_ap_seconds_ = seconds_since(t0);
  GraphSageLayer::combine(features, combined_[0].cview(), inv_norm_.cview(), combined_[0].view());
}

void SingleSocketTrainer::aggregate_over(bool transpose, ConstMatrixView X,
                                         DenseMatrix& out) const {
  out.resize_discard(X.rows, X.cols, 0);
  const ApConfig ap;
  if (config_.ap_mode == ApMode::kOptimized) {
    aggregate_prepartitioned(transpose ? blocked_out_ : blocked_in_, X, {}, out.view(), ap);
  } else {
    const Graph& g = dataset_.graph;
    aggregate_baseline(transpose ? g.out_csr() : g.in_csr(), X, {}, out.view(), ap.binary,
                       ap.reduce);
  }
}

void SingleSocketTrainer::forward(EpochStats& stats) {
  const auto n = static_cast<std::size_t>(dataset_.num_vertices());
  for (int l = 0; l < config_.num_layers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    auto t0 = std::chrono::steady_clock::now();
    if (l > 0) {
      const ConstMatrixView H = acts_[li - 1].cview();
      aggregate_over(/*transpose=*/false, H, combined_[li]);
      stats.ap_seconds += seconds_since(t0);

      t0 = std::chrono::steady_clock::now();
      GraphSageLayer::combine(H, combined_[li].cview(), inv_norm_.cview(), combined_[li].view());
    }
    acts_[li].resize_discard(n, model_.layer(l).out_dim());
    model_.layer(l).forward(combined_[li].cview(), acts_[li].view());
    stats.mlp_seconds += seconds_since(t0);
  }
}

EpochStats SingleSocketTrainer::train_epoch() {
  EpochStats stats;
  const auto epoch_begin = std::chrono::steady_clock::now();
  const auto n = static_cast<std::size_t>(dataset_.num_vertices());

  forward(stats);

  // ---- loss ----
  auto t0 = std::chrono::steady_clock::now();
  stats.loss = loss_.forward(acts_.back().cview(), dataset_.labels, dataset_.train_mask);
  model_.zero_grad();
  d_upper_.resize_discard(n, acts_.back().cols());
  loss_.backward(d_upper_.view());
  stats.mlp_seconds += seconds_since(t0);

  // ---- backward ----
  for (int l = config_.num_layers - 1; l >= 0; --l) {
    const auto li = static_cast<std::size_t>(l);
    t0 = std::chrono::steady_clock::now();
    // The input layer computes only its weight gradients: nothing needs the
    // gradient w.r.t. the input features.
    MatrixView dscaled;
    if (l > 0) {
      dscaled_.resize_discard(n, model_.layer(l).in_dim());
      dscaled = dscaled_.view();
    }
    model_.layer(l).backward_to_scaled(combined_[li].cview(), inv_norm_.cview(), d_upper_.cview(),
                                       dscaled);
    stats.mlp_seconds += seconds_since(t0);

    if (l == 0) break;

    // dH = dscaled + A^T dscaled (self + neighbour paths).
    t0 = std::chrono::steady_clock::now();
    aggregate_over(/*transpose=*/true, dscaled_.cview(), dH_);
    const std::size_t total = dH_.size();
#pragma omp parallel for schedule(static)
    for (std::size_t i = 0; i < total; ++i) dH_.data()[i] += dscaled_.data()[i];
    stats.ap_seconds += seconds_since(t0);
    std::swap(d_upper_, dH_);
  }

  t0 = std::chrono::steady_clock::now();
  auto params = model_.params();
  optimizer_.step(params);
  stats.mlp_seconds += seconds_since(t0);

  stats.total_seconds = seconds_since(epoch_begin);
  return stats;
}

double SingleSocketTrainer::evaluate(const std::vector<std::uint8_t>& mask) {
  EpochStats unused;
  forward(unused);
  return masked_accuracy(acts_.back().cview(), dataset_.labels, mask).accuracy();
}

}  // namespace distgnn
