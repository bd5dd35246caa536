// Distributed mini-batch training, Dist-DGL style: training vertices are
// split across ranks, each rank samples its own mini-batches against the
// (shared, read-only) graph and the replicas stay synchronized through a
// per-batch gradient AllReduce. This is the multi-socket comparator for
// Table 9's "Dist-DGL @16 sockets" row.
//
// Dist-DGL holds features in a distributed server and overlaps fetches with
// its (expensive) sampling; in-process, the shared dataset plays the feature
// server, which preserves the work division and synchronization pattern.
#pragma once

#include <cstdint>

#include "graph/datasets.hpp"
#include "sampling/sampled_trainer.hpp"

namespace distgnn {

struct DistSampledResult {
  double mean_epoch_seconds = 0.0;  // slowest rank per epoch, averaged
  double final_loss = 0.0;          // mean over ranks of last epoch's loss
  double test_accuracy = 0.0;       // full-graph evaluation on rank 0's model
  eid_t sampled_edges_per_epoch = 0;
};

/// Trains `epochs` epochs of mini-batch GraphSAGE over `num_ranks` simulated
/// sockets. `threads_per_rank` = 0 divides the machine evenly. Throws
/// std::invalid_argument unless num_ranks and epochs are at least 1.
DistSampledResult train_distributed_sampled(const Dataset& dataset, SampledTrainConfig config,
                                            int num_ranks, int epochs, int threads_per_rank = 0);

}  // namespace distgnn
