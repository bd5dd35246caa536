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
  const int blocks = config_.ap_mode == ApMode::kOptimized ? num_blocks_ : 1;
  blocked_in_ = BlockedCsr(in_csr, blocks);
  blocked_out_ = BlockedCsr(dataset.graph.out_csr(), blocks);

  const auto n = static_cast<std::size_t>(dataset.num_vertices());
  inv_norm_.resize_discard(n, 1);
  for (std::size_t v = 0; v < n; ++v)
    inv_norm_.at(v, 0) = 1.0f / (static_cast<real_t>(in_csr.degree(static_cast<vid_t>(v))) + 1.0f);

  all_rows_ = OutputFrontier::all_rows(blocked_in_, blocked_out_, inv_norm_);
  train_rows_ = OutputFrontier::select(blocked_in_, blocked_out_, inv_norm_, dataset.train_mask);
  train_labels_ = train_rows_.gather(std::span<const int>(dataset.labels));
  train_loss_mask_.assign(train_rows_.size(), 1);

  combined_.resize(static_cast<std::size_t>(config_.num_layers));
  acts_.resize(static_cast<std::size_t>(config_.num_layers));

  // Layer 0's input is constant: aggregate and combine it once, unless
  // layer 0 is the output layer, whose rows depend on the pass.
  if (config_.num_layers == 1) return;
  const ConstMatrixView features = dataset.features.cview();
  const auto t0 = std::chrono::steady_clock::now();
  aggregate_over(blocked_in_, features, combined_[0]);
  input_ap_seconds_ = seconds_since(t0);
  all_rows_.combine(features, combined_[0].cview(), combined_[0].view());
}

void SingleSocketTrainer::aggregate_over(const BlockedCsr& blocks, ConstMatrixView X,
                                         DenseMatrix& out) const {
  out.resize_discard(static_cast<std::size_t>(blocks.num_rows()), X.cols, 0);
  const ApConfig ap;
  if (config_.ap_mode == ApMode::kOptimized) {
    aggregate_prepartitioned(blocks, X, {}, out.view(), ap);
  } else {
    aggregate_baseline(blocks.block(0), X, {}, out.view(), ap.binary, ap.reduce);
  }
}

void SingleSocketTrainer::forward(EpochStats& stats, const OutputFrontier& output) {
  const int last = config_.num_layers - 1;
  for (int l = 0; l < config_.num_layers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const OutputFrontier& rows = l == last ? output : all_rows_;
    auto t0 = std::chrono::steady_clock::now();
    if (l > 0 || l == last) {
      const ConstMatrixView H = l == 0 ? dataset_.features.cview() : acts_[li - 1].cview();
      aggregate_over(rows.in(), H, combined_[li]);
      stats.ap_seconds += seconds_since(t0);

      t0 = std::chrono::steady_clock::now();
      rows.combine(H, combined_[li].cview(), combined_[li].view());
    }
    acts_[li].resize_discard(rows.size(), model_.layer(l).out_dim());
    model_.layer(l).forward(combined_[li].cview(), acts_[li].view());
    stats.mlp_seconds += seconds_since(t0);
  }
}

EpochStats SingleSocketTrainer::train_epoch() {
  EpochStats stats;
  const auto epoch_begin = std::chrono::steady_clock::now();
  const int last = config_.num_layers - 1;

  forward(stats, train_rows_);

  // ---- loss ----
  auto t0 = std::chrono::steady_clock::now();
  stats.loss = loss_.forward(acts_.back().cview(), train_labels_, train_loss_mask_,
                             static_cast<std::int64_t>(train_rows_.size()));
  model_.zero_grad();
  d_upper_.resize_discard(train_rows_.size(), acts_.back().cols());
  loss_.backward(d_upper_.view());
  stats.mlp_seconds += seconds_since(t0);

  // ---- backward ----
  for (int l = last; l >= 0; --l) {
    const auto li = static_cast<std::size_t>(l);
    const OutputFrontier& rows = l == last ? train_rows_ : all_rows_;
    t0 = std::chrono::steady_clock::now();
    // The input layer computes only its weight gradients: nothing needs the
    // gradient w.r.t. the input features.
    MatrixView dscaled;
    if (l > 0) {
      dscaled_.resize_discard(rows.size(), model_.layer(l).in_dim());
      dscaled = dscaled_.view();
    }
    model_.layer(l).backward_to_scaled(combined_[li].cview(), rows.inv_norm(), d_upper_.cview(),
                                       dscaled);
    stats.mlp_seconds += seconds_since(t0);

    if (l == 0) break;

    // dH = dscaled + A^T dscaled (self + neighbour paths), full height.
    t0 = std::chrono::steady_clock::now();
    aggregate_over(rows.out(), dscaled_.cview(), dH_);
    rows.add_self(dscaled_.cview(), dH_.view());
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
  forward(unused, all_rows_);
  return masked_accuracy(acts_.back().cview(), dataset_.labels, mask).accuracy();
}

}  // namespace distgnn
