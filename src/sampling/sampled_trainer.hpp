// Mini-batch GraphSAGE trainer over sampled blocks — the Dist-DGL-style
// comparator used in Table 9 of the paper. Reuses the full-batch trainer's
// SageModel, layer backward, loss and optimizer, so the epoch-time
// comparison isolates the aggregation strategy, not the MLP implementation.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/sage_model.hpp"
#include "graph/datasets.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optim.hpp"
#include "sampling/minibatch.hpp"

namespace distgnn {

struct SampledTrainConfig {
  std::vector<int> fanouts = {5, 10, 15};  // input-most first (paper Table 7)
  vid_t batch_size = 2000;
  int hidden_dim = 256;
  double lr = 0.01;
  double weight_decay = 5e-4;
  std::uint64_t seed = 1;
};

struct SampledEpochStats {
  double loss = 0.0;
  double seconds = 0.0;
  eid_t sampled_edges = 0;   // Σ sampled edges over all batches (work proxy)
  int num_batches = 0;
};

class SampledSageTrainer {
 public:
  SampledSageTrainer(const Dataset& dataset, SampledTrainConfig config);

  SampledEpochStats train_epoch();

  /// Restricts training to a subset of the train vertices (the Dist-DGL
  /// work division: each rank owns a shard of the training set).
  void restrict_train_vertices(std::vector<vid_t> vertices);

  /// Called with the parameter list after each batch's backward pass and
  /// before the optimizer step — the distributed trainer installs the
  /// gradient AllReduce here.
  void set_grad_hook(std::function<void(std::span<ParamRef>)> hook) { grad_hook_ = std::move(hook); }

  /// Full-graph (unsampled) evaluation accuracy on the given mask.
  double evaluate(const std::vector<std::uint8_t>& mask);

  int num_layers() const { return model_.num_layers(); }

 private:
  void forward_batch(const MiniBatch& mb, bool training);

  const Dataset& dataset_;
  SampledTrainConfig config_;
  SageModel model_;
  Rng rng_;  // batch order and neighbour sampling
  SoftmaxCrossEntropy loss_;
  Sgd optimizer_;
  std::vector<vid_t> train_vertices_;
  std::function<void(std::span<ParamRef>)> grad_hook_;

  // Per-layer activations of the current batch: acts_[0] is the gathered
  // input features; acts_[l+1] the output of layer l. aggs_[l] is layer l's
  // neighbourhood sum, combined in place into its Linear input.
  std::vector<DenseMatrix> acts_;
  std::vector<DenseMatrix> aggs_;
  std::vector<DenseMatrix> inv_norms_;
};

}  // namespace distgnn
