// Full-batch GraphSAGE training on one socket (§4): the full-batch program
// (core/fullbatch_sage.hpp) over the whole graph, with no sync hook, timed
// on the wall clock. Phase times separate AP time from the MLP so the bench
// can print the Figure 2 "Total vs AP" comparison: `input_ap_seconds()` is
// the one layer-0 aggregation at construction, and `EpochStats::ap_seconds`
// covers the rest.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/fullbatch_sage.hpp"
#include "graph/datasets.hpp"

namespace distgnn {

class SingleSocketTrainer {
 public:
  SingleSocketTrainer(const Dataset& dataset, TrainConfig config);

  EpochStats train_epoch();

  /// Forward-only accuracy with the current weights.
  double evaluate(const std::vector<std::uint8_t>& mask);

  SageModel& model() { return pass_.model(); }
  int effective_num_blocks() const { return pass_.num_blocks(); }

  /// Wall seconds of the one layer-0 aggregation run at construction (0
  /// when layer 0 is the output layer, which aggregates every epoch).
  double input_ap_seconds() const { return pass_.input_ap_seconds(); }

  /// The rows and edges the output layer computes in training.
  const OutputFrontier& output_frontier() const { return pass_.output_frontier(); }

 private:
  const Dataset& dataset_;
  FullBatchSage pass_;
};

}  // namespace distgnn
