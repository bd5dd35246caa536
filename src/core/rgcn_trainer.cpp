#include "core/rgcn_trainer.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "util/stopwatch.hpp"

namespace distgnn {

RgcnTrainer::RgcnTrainer(const Dataset& dataset, TrainConfig config)
    : dataset_(dataset),
      config_(config),
      rng_(config.seed),
      optimizer_(config.lr, config.momentum, config.weight_decay) {
  const int relations = dataset.num_edge_types;
  if (relations < 1) throw std::invalid_argument("RgcnTrainer: the dataset carries no edge types");
  const auto n = static_cast<std::size_t>(dataset.num_vertices());
  const int num_blocks = config_.num_blocks > 0
                             ? config_.num_blocks
                             : auto_num_blocks(dataset.num_vertices(),
                                               static_cast<std::size_t>(dataset.feature_dim()));
  const int blocks = config_.ap_mode == ApMode::kOptimized ? num_blocks : 1;

  for (const EdgeList& typed :
       split_by_relation(dataset.graph.coo(), dataset.edge_types, relations)) {
    const CsrMatrix in = CsrMatrix::from_coo(typed);
    blocked_in_.emplace_back(in, blocks);
    blocked_out_.emplace_back(CsrMatrix::transpose_from_coo(typed), blocks);
    DenseMatrix inv(n, 1);
    for (std::size_t v = 0; v < n; ++v) {
      const eid_t deg = in.degree(static_cast<vid_t>(v));
      inv.at(v, 0) = deg > 0 ? 1.0f / static_cast<real_t>(deg) : 0.0f;
    }
    inv_norms_.push_back(std::move(inv));
  }

  for (int l = 0; l < config.num_layers; ++l) {
    const std::size_t in = (l == 0) ? static_cast<std::size_t>(dataset.feature_dim())
                                    : static_cast<std::size_t>(config.hidden_dim);
    const std::size_t out = (l == config.num_layers - 1)
                                ? static_cast<std::size_t>(dataset.num_classes)
                                : static_cast<std::size_t>(config.hidden_dim);
    layers_.emplace_back(in, out, relations, /*apply_relu=*/l != config.num_layers - 1, rng_);
  }

  acts_.resize(static_cast<std::size_t>(config.num_layers));
  aggs_.assign(static_cast<std::size_t>(config.num_layers),
               std::vector<DenseMatrix>(static_cast<std::size_t>(relations)));
  dscaled_rel_.resize(static_cast<std::size_t>(relations));

  // The input features never change: aggregate layer 0 once.
  const auto t0 = std::chrono::steady_clock::now();
  aggregate_layer(0);
  input_ap_seconds_ = seconds_since(t0);
}

std::vector<ParamRef> RgcnTrainer::params() {
  std::vector<ParamRef> refs;
  for (RgcnLayer& layer : layers_) layer.collect_params(refs);
  return refs;
}

ConstMatrixView RgcnTrainer::layer_input(std::size_t l) const {
  return l == 0 ? dataset_.features.cview() : acts_[l - 1].cview();
}

void RgcnTrainer::aggregate(const BlockedCsr& blocks, ConstMatrixView X, MatrixView out) const {
  ApConfig ap;
  // Per-relation subgraphs are very sparse and degree-homogeneous (AM splits
  // ~6 in-edges over 4 relations), so dynamic scheduling only costs overhead
  // here — exactly the Figure 4 observation that DS pays off on *skewed*
  // graphs. Static scheduling with the vectorized micro-kernel wins.
  ap.dynamic_schedule = false;
  if (config_.ap_mode == ApMode::kOptimized) {
    aggregate_prepartitioned(blocks, X, {}, out, ap);
  } else {
    aggregate_baseline(blocks.block(0), X, {}, out, ap.binary, ap.reduce);
  }
}

void RgcnTrainer::aggregate_layer(std::size_t l) {
  const auto n = static_cast<std::size_t>(dataset_.num_vertices());
  const ConstMatrixView H = layer_input(l);
  for (int r = 0; r < num_relations(); ++r) {
    DenseMatrix& agg = aggs_[l][static_cast<std::size_t>(r)];
    agg.resize_discard(n, H.cols, 0);
    aggregate(blocked_in_[static_cast<std::size_t>(r)], H, agg.view());
  }
}

void RgcnTrainer::forward(EpochStats& stats) {
  const auto n = static_cast<std::size_t>(dataset_.num_vertices());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (l > 0) {
      const auto t0 = std::chrono::steady_clock::now();
      aggregate_layer(l);
      stats.ap_seconds += seconds_since(t0);
    }

    const auto t1 = std::chrono::steady_clock::now();
    acts_[l].resize_discard(n, layers_[l].out_dim());
    layers_[l].forward_from_aggregates(layer_input(l), aggs_[l], inv_norms_, acts_[l].view());
    stats.mlp_seconds += seconds_since(t1);
  }
}

EpochStats RgcnTrainer::train_epoch() {
  EpochStats stats;
  const auto begin = std::chrono::steady_clock::now();
  const auto n = static_cast<std::size_t>(dataset_.num_vertices());
  const int relations = num_relations();

  forward(stats);

  auto t0 = std::chrono::steady_clock::now();
  stats.loss = loss_.forward(acts_.back().cview(), dataset_.labels, dataset_.train_mask);
  for (auto& layer : layers_) layer.zero_grad();
  d_upper_.resize_discard(n, acts_.back().cols());
  loss_.backward(d_upper_.view());
  stats.mlp_seconds += seconds_since(t0);

  for (int l = static_cast<int>(layers_.size()) - 1; l >= 0; --l) {
    t0 = std::chrono::steady_clock::now();
    // The input layer computes only its weight gradients.
    MatrixView dH_self;
    if (l > 0) {
      dH_self_.resize_discard(n, layers_[static_cast<std::size_t>(l)].in_dim());
      dH_self = dH_self_.view();
    }
    layers_[static_cast<std::size_t>(l)].backward(layer_input(static_cast<std::size_t>(l)),
                                                  d_upper_.cview(), dscaled_rel_, dH_self);
    stats.mlp_seconds += seconds_since(t0);

    if (l == 0) break;

    // dH = dH_self + Σ_r A_rᵀ dscaled_rel[r].
    t0 = std::chrono::steady_clock::now();
    std::swap(dH_, dH_self_);
    scratch_.resize_discard(n, dH_.cols(), 0);
    for (int r = 0; r < relations; ++r) {
      scratch_.zero();
      aggregate(blocked_out_[static_cast<std::size_t>(r)],
                dscaled_rel_[static_cast<std::size_t>(r)].cview(), scratch_.view());
      const std::size_t total = dH_.size();
#pragma omp parallel for schedule(static)
      for (std::size_t i = 0; i < total; ++i) dH_.data()[i] += scratch_.data()[i];
    }
    stats.ap_seconds += seconds_since(t0);
    std::swap(d_upper_, dH_);
  }

  t0 = std::chrono::steady_clock::now();
  std::vector<ParamRef> params;
  for (auto& layer : layers_) layer.collect_params(params);
  optimizer_.step(params);
  stats.mlp_seconds += seconds_since(t0);

  stats.total_seconds = seconds_since(begin);
  return stats;
}

double RgcnTrainer::evaluate(const std::vector<std::uint8_t>& mask) {
  EpochStats unused;
  forward(unused);
  return masked_accuracy(acts_.back().cview(), dataset_.labels, mask).accuracy();
}

}  // namespace distgnn
