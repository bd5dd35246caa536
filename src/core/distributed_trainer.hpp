// Distributed full-batch GraphSAGE training (§5): data-parallel model
// replicas, one rank per partition. Each rank runs the single socket's
// full-batch program (core/fullbatch_sage.hpp) on its local partition, with
// the halo exchange as the program's per-layer sync hook. The exchange is
// Alg. 4, two moves over each bin of the halo plan: leaf->root, where each
// root adds its peers' partials in ascending peer order, and root->leaf,
// where each leaf's row is set to its root's total. The three
// aggregation-communication algorithms of §5.3 are:
//
//   0c    — local partial aggregates only; no communication (the roofline).
//   cd-0  — Alg. 4 with lag 0: every epoch, every split tree synchronizes:
//           leaves push partial aggregates to the root, the root reduces and
//           pushes totals back. Trains the single-socket model: its
//           forward and, with the backward exchange below, its gradient
//           match the single socket's up to reassociation.
//   cd-r  — Delayed Remote Partial Aggregates, Alg. 4 with lag r >= 1: split
//           trees are binned; each epoch only bin (e mod r) communicates, and
//           its data is consumed r epochs later, overlapping communication
//           with computation at the cost of staleness. Each rank keeps the
//           last payload received on every (layer, bin, peer, direction)
//           channel; the StalenessPolicy says which of them it applies. A
//           payload is sent only if a training pass receives it.
//
// Layer 0 aggregates the constant input features, so its payloads never
// change and, once they have all landed, its synced input is the same every
// epoch. From then on each rank keeps that input and runs only layer 0's
// Linear, as the single socket does: 0c and cd-0 from epoch 1, cd-r with
// kCache from epoch 3r (layer 0 sends for its first 2r epochs only). cd-r
// with kLiteral applies one bin per epoch, so its layer 0 syncs every epoch.
//
// Evaluation is exact: Alg. 4 with lag 0 over every bin of the plan.
//
// Where every leaf's synced aggregate row is its root's fp32 total — cd-0
// below the output layer, cd-r kCache's layer 0 once it settles, and
// evaluation below the output layer — every clone's layer input is its
// root's. There cd-0 and cd-r run the layer's Linear and ReLU on owned rows
// only, and one more root->leaf move over every bin of the full plan sets
// each leaf's activation row (hidden_dim wide) from its root's. With bf16
// or fp16 halos a leaf holds the decoded payload instead, and every clone
// runs its Linear, as every clone does in 0c, which moves nothing
// (core/fullbatch_sage.hpp).
//
// The backward runs the two moves transposed, at lag 0 over every bin, in
// cd-0 and cd-r (0c exchanges nothing): below the output layer each split
// vertex's partial feature gradient dH is reduced leaf->root, only the root
// runs the layer's ReLU′ and weight gradients, and above layer 0 the root's
// scaled gradient is broadcast root->leaf, so that every clone's local edges
// carry it back (core/fullbatch_sage.hpp).
//
// Model replicas start from identical seeds and stay synchronized through a
// per-epoch gradient AllReduce (the paper's parameter sync).
//
// In training, the output layer runs only on its output frontier
// (core/output_frontier.hpp): every local clone of a training vertex, since
// a leaf's partial aggregate completes its label owner's. Its halo uses the
// plan restricted to training trees (restrict_halo_plan) and runs leaf->root
// only, in every algorithm and in evaluation too: label owners are roots,
// and no leaf reads an output total. Its backward runs the other way: the
// roots' scaled gradient goes root->leaf over the same restricted plan.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "graph/datasets.hpp"
#include "partition/halo_plan.hpp"
#include "partition/partition_setup.hpp"

namespace distgnn {

// Phase times are each the slowest rank's, on its thread CPU clock.
struct DistEpochRecord {
  double loss = 0.0;            // global training loss
  double total_seconds = 0.0;   // slowest rank, wall clock
  // LAT (forward pass): the local aggregation of layers 1.. and, until
  // layer 0's synced input settles, the restore of its local partial,
  // which is built once.
  double local_agg_seconds = 0.0;
  // RAT incl. pre/post-processing: the forward's halo exchange (layer 0's
  // until it settles), the clone-exact layers' activation moves and the
  // backward's gradient exchange.
  double remote_agg_seconds = 0.0;
  // Combine, Linear, loss, GraphSageLayer::backward (ReLU′ and the weight
  // gradients) and the optimizer step.
  double mlp_seconds = 0.0;
  double backward_ap_seconds = 0.0;  // transpose AP + add_self
};

struct DistTrainResult {
  std::vector<DistEpochRecord> epochs;
  double train_accuracy = 0.0;
  double val_accuracy = 0.0;
  double test_accuracy = 0.0;
  std::uint64_t total_bytes_sent = 0;      // sum over ranks, whole run
  std::uint64_t allreduce_bytes = 0;       // sum over ranks

  /// Mean epoch time skipping the first `skip` epochs (the paper averages
  /// epochs 10-20 for cd-r because of the communication delay of 5).
  double mean_epoch_seconds(int skip = 0) const;
  double mean_local_agg_seconds(int skip = 0) const;
  double mean_remote_agg_seconds(int skip = 0) const;
  double mean_mlp_seconds(int skip = 0) const;
  double mean_backward_ap_seconds(int skip = 0) const;
};

/// Trains `config.epochs` epochs of GraphSAGE over the given partitioning,
/// one simulated socket (rank thread) per partition. Throws
/// std::invalid_argument, before any rank starts, for cd-r with a delay
/// below 1 or above 1024 (the halo tags' bins per layer), and
/// std::logic_error if a rank ends with a halo payload it never received.
/// The final accuracies are measured with a fully synchronized (cd-0 style)
/// forward pass so all algorithms are scored on the true full-neighbourhood
/// semantics.
DistTrainResult train_distributed(const Dataset& dataset, const PartitionedGraph& pg,
                                  const TrainConfig& config);

}  // namespace distgnn
