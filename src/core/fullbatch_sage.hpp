// The full-batch GraphSAGE program (§4, §5): one forward, loss, backward and
// optimizer step over one graph. SingleSocketTrainer runs it on the whole
// graph; each rank of train_distributed runs it on its local partition,
// with a sync hook that completes every layer's partial aggregate through
// the halo exchange (Alg. 4), and the cut's own moves: the root->leaf set
// of a clone-exact layer's activations and the exchange transposed — the
// distributed trainer is the single-socket one plus remote partial
// aggregation.
//
// A pass, layer by layer:  AP → sync hook (if any) → combine → Linear,
// then the softmax loss, then backward layer by layer, top down, on the
// rows the program owns:
//   reduce (below the output layer, if set): every leaf's partial dH is
//     added into its root's row, so owned rows hold the complete dH;
//   GraphSageLayer::backward on the owned rows only: ReLU′ and the weight
//     gradients count each vertex once;
//   broadcast (above layer 0, if set): every leaf's row of dscaled is set
//     to its root's, so the transpose AP runs on every clone's local edges,
//     each edge on exactly one rank;
//   transpose AP, then add_self on the owned rows (dH = dscaled + Aᵀ·dscaled).
// A vertex cut gives each split vertex one owned clone (its root) and leaf
// clones. The single socket, and a rank without a cut sync (0c), own
// every row: the same backward then runs on all of them and reads the
// forward's combined input in place.
//
// Dense work once per vertex, forward half. A layer below the output is
// clone-exact when its hook reports every leaf's synced aggregate row
// bitwise its root's: the exchange set it from the root's fp32 total (cd-0,
// evaluation's exact sync, and cd-r kCache's layer 0 from the pass that
// settles it; never with bf16/fp16 halos, whose leaves hold the decoded
// payload), at this layer and every layer below. Then every clone's
// combined row is bitwise its root's (the self path reads the vertex's own
// features, or activations the layer below made its root's, and its global
// degree), and so is its Linear row. On a clone-exact layer a program with
// leaves runs Linear and ReLU on its owned rows only, from the compact
// owned combined input, places them in the layer's activations, and sets
// every leaf's row from its root's with the cut's one root->leaf move,
// `broadcast`. Every other layer — 0c, cd-r kLiteral, cd-r before it
// settles, low-precision halos, the output layer — runs every clone's row.
//
// Layer 0's aggregate of the constant input features is built once, at
// construction. Without a sync hook it is combined once too, and each pass
// layer 0 runs only its Linear. With one, a training pass restores the
// local partial, syncs and combines it until the hook reports the synced
// input settled: from then on training keeps that combined input, and
// whether it is clone-exact, as without a hook, until an evaluation pass
// overwrites it.
//
// Training runs the output layer, its loss and its backward only on the
// training frontier (core/output_frontier.hpp); every other layer, and the
// output layer of a forward_all(), run on the all-rows frontier.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/output_frontier.hpp"
#include "core/sage_model.hpp"
#include "graph/csr.hpp"
#include "kernels/aggregate.hpp"
#include "nn/loss.hpp"

namespace distgnn {

/// The graph a program runs on: the whole graph, or one rank's local
/// partition. Only `features` is referenced after construction.
struct FullBatchGraph {
  const CsrMatrix& in_csr;             // row v: v's (local) in-neighbours
  const CsrMatrix& out_csr;            // its transpose
  std::span<const eid_t> in_degree;    // global in-degree per row: 1/(deg+1)
  ConstMatrixView features;            // constant input features, per row
  std::span<const int> labels;         // per row
  std::span<const std::uint8_t> output_rows;  // rows the training output layer computes
  std::span<const std::uint8_t> loss_rows;    // of those, the rows the loss reads
};

/// Seconds spent per phase, on the program's clock.
struct PassTimes {
  double ap = 0.0;           // forward AP, and the restore of layer 0's unsettled partial
  double sync = 0.0;         // the sync hook and the cut's moves
  double backward_ap = 0.0;  // transpose AP + add_self
  double mlp = 0.0;          // combine, Linear, loss, GraphSageLayer::backward, step
};

class FullBatchSage {
 public:
  /// Seconds on some monotone clock: wall for one socket, thread CPU for a
  /// rank (see thread_cpu_seconds).
  using Clock = double (*)();
  /// What a sync hook reports about the aggregate it completed. `settled`
  /// counts only for layer 0 below the output layer in training: the
  /// aggregate is what every later training pass's hook would produce, and
  /// training passes skip layer 0's restore, hook and combine until the
  /// next forward_all(). `clone_exact` counts below the output layer: every
  /// leaf's row of the aggregate is bitwise its root's, and was at every
  /// layer below in this pass, so the layer runs its Linear on the owned
  /// rows only (see the header comment).
  struct SyncStatus {
    bool settled = false;
    bool clone_exact = false;
  };
  /// Completes layer `layer`'s aggregate `agg` in place, between the AP and
  /// the combine. `training` is false in forward_all(). In training, the
  /// output layer's `agg` has the training frontier's rows.
  using SyncHook = std::function<SyncStatus(int layer, bool training, MatrixView agg)>;
  /// The vertex cut's own moves, at lag 0. Each completes before it
  /// returns.
  struct CutSync {
    /// One flag per graph row: the rows whose backward, and whose Linear on
    /// a clone-exact layer, this program runs (every clone of an unsplit
    /// vertex, the root of a split one). Read at construction only; empty =
    /// every row.
    std::span<const std::uint8_t> owned;
    /// Adds each leaf's row of `dH`, layer `layer`'s full-height output
    /// gradient, into its root's row. Runs below the output layer.
    std::function<void(int layer, MatrixView dH)> reduce;
    /// Sets each leaf's row of `m` to its root's: layer `layer`'s
    /// activations on a clone-exact layer, in the forward, and its scaled
    /// input gradient dscaled above layer 0, in the backward (the output
    /// layer's has the training frontier's rows).
    std::function<void(int layer, MatrixView m)> broadcast;
  };

  /// Owned flags need a sync hook. Without them every row is owned.
  FullBatchSage(const FullBatchGraph& graph, const TrainConfig& config, int num_classes,
                Clock clock, SyncHook sync = {}, CutSync cut_sync = {});
  // The frontiers refer to the program's own blocks.
  FullBatchSage(const FullBatchSage&) = delete;
  FullBatchSage& operator=(const FullBatchSage&) = delete;

  /// Training forward, loss and backward; leaves the parameter gradients in
  /// model(). Returns the loss over the loss rows divided by `divisor`
  /// (0 = their count).
  double train_pass(std::int64_t divisor, PassTimes& times);
  /// One optimizer step on model()'s gradients.
  void step(PassTimes& times);
  /// Forward on every row; returns the logits, one row per graph row. With
  /// a sync hook the next training pass syncs layer 0 again.
  ConstMatrixView forward_all();

  SageModel& model() { return model_; }
  int num_blocks() const { return num_blocks_; }
  /// Clock seconds of the one layer-0 aggregation run at construction (0
  /// when layer 0 is the output layer, which aggregates every pass).
  double input_ap_seconds() const { return input_ap_seconds_; }
  /// The rows and edges the output layer computes in training.
  const OutputFrontier& output_frontier() const { return train_rows_; }

 private:
  /// The owned rows of a frontier, as ascending compact ids, and each
  /// compact row's index among them (-1 if not owned); `slot` is empty
  /// when every row is owned.
  struct Owned {
    std::vector<vid_t> rows, slot;
  };

  void forward(bool training, PassTimes& times);
  /// The owned rows of layer `l`'s training frontier.
  const Owned& owned(int l) const {
    return l == config_.num_layers - 1 ? train_owned_ : owned_;
  }
  /// out = A·X over `blocks` with the configured AP; out has the blocks' rows.
  void aggregate(const BlockedCsr& blocks, ConstMatrixView X, DenseMatrix& out) const;
  /// Adds the clock seconds since `t0` to `total`; returns now.
  double lap(double& total, double t0) const;

  TrainConfig config_;
  Clock clock_;
  SyncHook sync_;
  CutSync cut_sync_;
  ConstMatrixView features_;
  SageModel model_;
  SoftmaxCrossEntropy loss_;
  Sgd optimizer_;
  int num_blocks_ = 1;
  double input_ap_seconds_ = 0.0;

  // Forward and backward (transpose) adjacency: column blocks for
  // ApMode::kOptimized, the plain CSR as one block for kBaseline.
  BlockedCsr blocked_in_, blocked_out_;
  DenseMatrix inv_norm_;       // n x 1, 1/(in_degree+1)
  OutputFrontier all_rows_;    // hidden layers, and the output layer in forward_all()
  OutputFrontier train_rows_;  // the output layer in train_pass()
  std::vector<int> train_labels_;              // labels at train_rows_
  std::vector<std::uint8_t> train_loss_mask_;  // loss_rows at train_rows_
  // owned_ is all_rows_'s, train_owned_ train_rows_'s.
  Owned owned_, train_owned_;

  // combined_[l] is layer l's Linear input, (agg + H) · inv_norm, built in
  // place of its (synced) aggregate; the output layer's has the pass's
  // frontier rows. Without a sync hook combined_[0] is built once, at
  // construction; with one, input_agg_ keeps layer 0's local partial.
  // While input_status_.settled, combined_[0] (and owned_combined_[0]) hold
  // the next training pass's layer-0 input, with the status its hook
  // reported: always without a hook, and with one from the training pass
  // whose hook reported it settled until the next forward_all(), whose own
  // sync overwrites it.
  // acts_[l] is layer l's output; layer 0 reads features_.
  // Where layer l's training frontier has unowned rows, owned_combined_[l]
  // is combined_[l] at its owned rows, written by the combine in training
  // and on a clone-exact layer: the Linear input of a clone-exact layer and
  // the only rows the backward reads. Elsewhere it is empty, and both read
  // combined_[l]. owned_acts_ is a clone-exact layer's Linear output.
  std::vector<DenseMatrix> combined_;
  std::vector<DenseMatrix> owned_combined_;
  std::vector<DenseMatrix> acts_;
  DenseMatrix owned_acts_;
  DenseMatrix input_agg_;
  SyncStatus input_status_;
  DenseMatrix d_upper_, dscaled_, dH_;
};

}  // namespace distgnn
