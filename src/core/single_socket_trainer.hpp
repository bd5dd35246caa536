// Full-batch GraphSAGE training on one socket (§4): the optimized AP drives
// the forward/backward aggregation; phase timers separate AP time from the
// MLP so the bench can print the Figure 2 "Total vs AP" comparison.
//
// Full-batch training never changes the input features, so layer 0's
// combined input (Â·X + X)·inv is built once, at construction; each epoch
// layer 0 runs only its Linear. The AP time of that one aggregation is
// `input_ap_seconds()`, and `EpochStats::ap_seconds` covers the rest.
//
// Training runs the output layer, its loss and its backward only on the
// training rows, the output frontier (core/output_frontier.hpp); evaluate()
// runs it on every row.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/output_frontier.hpp"
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
  // The all-rows frontier refers to the trainer's own blocks.
  SingleSocketTrainer(const SingleSocketTrainer&) = delete;
  SingleSocketTrainer& operator=(const SingleSocketTrainer&) = delete;

  EpochStats train_epoch();

  /// Forward-only accuracy with the current weights.
  double evaluate(const std::vector<std::uint8_t>& mask);

  SageModel& model() { return model_; }
  int effective_num_blocks() const { return num_blocks_; }

  /// Wall seconds of the one layer-0 aggregation run at construction (0
  /// when layer 0 is the output layer, which aggregates every epoch).
  double input_ap_seconds() const { return input_ap_seconds_; }

  /// The rows and edges the output layer computes in training.
  const OutputFrontier& output_frontier() const { return train_rows_; }

 private:
  /// Forward pass with the output layer on `output`'s rows.
  void forward(EpochStats& stats, const OutputFrontier& output);
  /// out = A·X over `blocks` with the configured AP; out has the blocks' rows.
  void aggregate_over(const BlockedCsr& blocks, ConstMatrixView X, DenseMatrix& out) const;

  const Dataset& dataset_;
  TrainConfig config_;
  SageModel model_;
  SoftmaxCrossEntropy loss_;
  Sgd optimizer_;
  int num_blocks_ = 1;
  double input_ap_seconds_ = 0.0;

  // Forward and backward (transpose) adjacency: column blocks for
  // ApMode::kOptimized, the plain CSR as one block for kBaseline.
  BlockedCsr blocked_in_, blocked_out_;
  DenseMatrix inv_norm_;     // n x 1, 1/(in_degree+1)
  OutputFrontier all_rows_;     // hidden layers, and the output layer in evaluate()
  OutputFrontier train_rows_;   // the output layer in train_epoch()
  std::vector<int> train_labels_;           // labels at train_rows_
  std::vector<std::uint8_t> train_loss_mask_;  // all ones: every frontier row is read

  // combined_[l] is layer l's Linear input, (agg + H) · inv_norm, built in
  // place of its aggregate: combined_[0] once at construction, the others
  // every forward; the output layer's has the frontier's rows. acts_[l] is
  // layer l's output; layer 0 reads dataset_.features.
  std::vector<DenseMatrix> combined_;
  std::vector<DenseMatrix> acts_;
  DenseMatrix d_upper_, dscaled_, dH_;
};

}  // namespace distgnn
