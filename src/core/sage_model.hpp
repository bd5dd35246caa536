// GraphSAGE model: a stack of GraphSageLayer with parameter collection, the
// shape used throughout the paper's evaluation (GCN aggregation operator,
// 2-3 layers, hidden width 16/256).
#pragma once

#include <vector>

#include "core/config.hpp"
#include "nn/graphsage_layer.hpp"
#include "nn/optim.hpp"
#include "util/rng.hpp"

namespace distgnn {

class SageModel {
 public:
  /// All ranks construct with the same seed so replicas start identical —
  /// the data-parallel invariant the gradient AllReduce preserves.
  SageModel(int feature_dim, int hidden_dim, int num_classes, int num_layers, std::uint64_t seed);

  int num_layers() const { return static_cast<int>(layers_.size()); }
  GraphSageLayer& layer(int l) { return layers_[static_cast<std::size_t>(l)]; }

  std::vector<ParamRef> params();
  void zero_grad();

 private:
  std::vector<GraphSageLayer> layers_;
};

}  // namespace distgnn
