#include "core/work_model.hpp"

namespace distgnn {

MiniBatchWork minibatch_work(const std::vector<HopWork>& hops, std::int64_t train_vertices,
                             std::int64_t batch_size, int num_sockets) {
  MiniBatchWork out;
  out.hops = hops;
  for (const HopWork& h : hops) out.batch_ops += h.ops();
  const std::int64_t total_batches = (train_vertices + batch_size - 1) / batch_size;
  out.batches_per_socket = (total_batches + num_sockets - 1) / num_sockets;
  out.socket_ops = out.batch_ops * static_cast<double>(out.batches_per_socket);
  return out;
}

FullBatchWork fullbatch_work(std::int64_t partition_vertices, double avg_degree,
                             const std::vector<int>& feats_per_hop,
                             std::int64_t output_vertices) {
  FullBatchWork out;
  int hop_number = static_cast<int>(feats_per_hop.size()) - 1;
  for (const int f : feats_per_hop) {
    HopWork h;
    h.vertices = hop_number == 0 && output_vertices >= 0 ? output_vertices : partition_vertices;
    h.label = "Hop-" + std::to_string(hop_number--);
    h.avg_degree = avg_degree;
    h.feats = f;
    out.socket_ops += h.ops();
    out.hops.push_back(h);
  }
  return out;
}

}  // namespace distgnn
