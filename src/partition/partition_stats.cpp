#include "partition/partition_stats.hpp"

#include <algorithm>
#include <vector>

namespace distgnn {

PartitionQuality evaluate_partition(const EdgeList& edges, const EdgePartition& ep) {
  PartitionQuality q;
  const CloneSets member =
      build_clone_sets(edges.num_vertices, edges.edges, ep.edge_owner, ep.num_parts);
  std::uint64_t clones = 0;
  std::vector<vid_t> part_vertices(static_cast<std::size_t>(ep.num_parts), 0);
  std::vector<vid_t> part_split(static_cast<std::size_t>(ep.num_parts), 0);
  for (vid_t v = 0; v < edges.num_vertices; ++v) {
    const int n = member.count(v);
    if (n == 0) continue;
    ++q.touched_vertices;
    clones += static_cast<std::uint64_t>(n);
    if (n > 1) ++q.split_vertices;
    member.for_each(v, [&](part_t p) {
      ++part_vertices[static_cast<std::size_t>(p)];
      if (n > 1) ++part_split[static_cast<std::size_t>(p)];
    });
  }
  if (q.touched_vertices > 0)
    q.replication_factor = static_cast<double>(clones) / static_cast<double>(q.touched_vertices);

  if (ep.num_parts > 0 && !edges.edges.empty()) {
    const eid_t max_edges = *std::max_element(ep.edges_per_part.begin(), ep.edges_per_part.end());
    const double mean = static_cast<double>(edges.edges.size()) / static_cast<double>(ep.num_parts);
    q.edge_balance = static_cast<double>(max_edges) / mean;
  }

  double share_sum = 0.0;
  int populated = 0;
  for (part_t p = 0; p < ep.num_parts; ++p) {
    if (part_vertices[static_cast<std::size_t>(p)] == 0) continue;
    share_sum += static_cast<double>(part_split[static_cast<std::size_t>(p)]) /
                 static_cast<double>(part_vertices[static_cast<std::size_t>(p)]);
    ++populated;
  }
  if (populated > 0) q.split_vertex_share = share_sum / populated;
  return q;
}

}  // namespace distgnn
