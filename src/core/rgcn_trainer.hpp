// Full-batch RGCN training on edge-typed graphs — the Figure 2 "RGCN-hetero
// on AM" workload. The trainer reads the same Dataset that serves the model:
// its edge_types split the graph's COO into one in/out adjacency per
// relation, built once at construction. One AP invocation per relation per
// layer; per-relation transpose aggregation closes the backward pass.
// Layer 0's per-relation aggregates of the constant input features are built
// once, at construction.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "graph/datasets.hpp"
#include "kernels/aggregate.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optim.hpp"
#include "nn/rgcn_layer.hpp"

namespace distgnn {

class RgcnTrainer {
 public:
  /// Throws std::invalid_argument unless the dataset carries edge types,
  /// one per edge, and std::out_of_range for a type outside its relations.
  RgcnTrainer(const Dataset& dataset, TrainConfig config);

  EpochStats train_epoch();
  double evaluate(const std::vector<std::uint8_t>& mask);

  int num_relations() const { return dataset_.num_edge_types; }

  /// Wall seconds of the layer-0 aggregations run once at construction.
  double input_ap_seconds() const { return input_ap_seconds_; }

  /// All trainable parameters in layer order (per layer: self weight, self
  /// bias, then one weight per relation) — the checkpoint order
  /// serve::ModelSnapshot's kRgcn loader expects.
  std::vector<ParamRef> params();

  /// Full-graph logits of the most recent forward pass (valid after
  /// train_epoch() or evaluate()); one row per vertex.
  ConstMatrixView logits() const { return acts_.back().cview(); }

 private:
  void forward(EpochStats& stats);
  ConstMatrixView layer_input(std::size_t l) const;
  /// aggs_[l][r] = A_r · layer_input(l) for every relation r.
  void aggregate_layer(std::size_t l);
  /// out = blocks · X, the AP of config_.ap_mode; `out` must start at zero.
  void aggregate(const BlockedCsr& blocks, ConstMatrixView X, MatrixView out) const;

  const Dataset& dataset_;
  TrainConfig config_;
  Rng rng_;
  std::vector<RgcnLayer> layers_;
  SoftmaxCrossEntropy loss_;
  Sgd optimizer_;
  double input_ap_seconds_ = 0.0;

  // Per relation: the column blocks under ApMode::kOptimized, the plain CSR
  // as one block for kBaseline.
  std::vector<BlockedCsr> blocked_in_;
  std::vector<BlockedCsr> blocked_out_;
  std::vector<DenseMatrix> inv_norms_;   // per relation, n x 1

  // acts_[l] is layer l's output; layer 0 reads dataset_.features.
  // aggs_[0] is built at construction, aggs_[l > 0] every forward.
  std::vector<DenseMatrix> acts_;
  std::vector<std::vector<DenseMatrix>> aggs_;    // [layer][relation]
  std::vector<DenseMatrix> dscaled_rel_;          // per relation scratch
  DenseMatrix d_upper_, dH_, dH_self_, scratch_;
};

}  // namespace distgnn
