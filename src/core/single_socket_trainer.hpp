// Full-batch GraphSAGE training on one socket (§4): the optimized AP drives
// the forward/backward aggregation; phase timers separate AP time from the
// MLP so the bench can print the Figure 2 "Total vs AP" comparison.
//
// Full-batch training never changes the input features, so layer 0's
// combined input (Â·X + X)·inv is built once, at construction; each epoch
// layer 0 runs only its Linear. The AP time of that one aggregation is
// `input_ap_seconds()`, and `EpochStats::ap_seconds` covers the rest.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/sage_model.hpp"
#include "graph/datasets.hpp"
#include "kernels/aggregate.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "util/stopwatch.hpp"

namespace distgnn {

struct EpochStats {
  double loss = 0.0;
  double total_seconds = 0.0;
  double ap_seconds = 0.0;   // forward + backward aggregation time
  double mlp_seconds = 0.0;  // linear/activation/loss time
};

class SingleSocketTrainer {
 public:
  SingleSocketTrainer(const Dataset& dataset, TrainConfig config);

  EpochStats train_epoch();

  /// Forward-only accuracy with the current weights.
  double evaluate(const std::vector<std::uint8_t>& mask);

  SageModel& model() { return model_; }
  int effective_num_blocks() const { return num_blocks_; }

  /// Wall seconds of the one layer-0 aggregation run at construction.
  double input_ap_seconds() const { return input_ap_seconds_; }

 private:
  void forward(EpochStats& stats);
  /// out = A·X, or Aᵀ·X with `transpose`, with the configured AP.
  void aggregate_over(bool transpose, ConstMatrixView X, DenseMatrix& out) const;

  const Dataset& dataset_;
  TrainConfig config_;
  SageModel model_;
  SoftmaxCrossEntropy loss_;
  Sgd optimizer_;
  int num_blocks_ = 1;
  double input_ap_seconds_ = 0.0;

  BlockedCsr blocked_in_;    // optimized forward aggregation
  BlockedCsr blocked_out_;   // optimized backward (transpose) aggregation
  DenseMatrix inv_norm_;     // n x 1, 1/(in_degree+1)

  // combined_[l] is layer l's Linear input, (agg + H) · inv_norm, built in
  // place of its aggregate: combined_[0] once at construction, the others
  // every forward. acts_[l] is layer l's output; layer 0 reads
  // dataset_.features.
  std::vector<DenseMatrix> combined_;
  std::vector<DenseMatrix> acts_;
  DenseMatrix d_upper_, dscaled_, dH_;
};

}  // namespace distgnn
