// Analytic aggregation-work model behind Tables 7 and 8 of the paper.
//
// Work per hop = #destination vertices x average (sampled) degree x feature
// width, in operations. For mini-batch sampling (Dist-DGL) the per-hop
// vertex counts shrink toward the seeds and the degree is the fan-out; for
// full-batch DistGNN every partition vertex aggregates its complete
// neighbourhood at every hop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace distgnn {

struct HopWork {
  std::string label;
  std::int64_t vertices = 0;
  double avg_degree = 0.0;
  int feats = 0;

  /// Operations for this hop.
  double ops() const { return static_cast<double>(vertices) * avg_degree * feats; }
  double giga_ops() const { return ops() / 1e9; }
};

struct MiniBatchWork {
  std::vector<HopWork> hops;       // output-most hop first ("Hop-0" last, as in Table 7)
  double batch_ops = 0.0;          // one mini-batch
  std::int64_t batches_per_socket = 0;
  double socket_ops = 0.0;         // one epoch's share on one socket
};

/// Table 7: per-hop sampled vertex counts are supplied by the caller (the
/// paper measures them; tests use the paper's exact numbers).
MiniBatchWork minibatch_work(const std::vector<HopWork>& hops, std::int64_t train_vertices,
                             std::int64_t batch_size, int num_sockets);

struct FullBatchWork {
  std::vector<HopWork> hops;
  double socket_ops = 0.0;  // one partition == one socket's full batch
};

/// Table 8: every hop touches all partition vertices with the full average
/// degree; `feats_per_hop` is input-most first (f, h, h ... matching layers).
/// The output hop ("Hop-0") touches `output_vertices` instead when it is
/// >= 0: the training vertices (their clones, on a partition) that the
/// output frontier computes. The default, -1, is the paper's count.
FullBatchWork fullbatch_work(std::int64_t partition_vertices, double avg_degree,
                             const std::vector<int>& feats_per_hop,
                             std::int64_t output_vertices = -1);

}  // namespace distgnn
