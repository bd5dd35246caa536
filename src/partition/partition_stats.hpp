// Quality metrics of an edge partition: replication factor (Table 4 of the
// paper), edge balance and split-vertex counts (Table 6's bottom row), counted
// over build_clone_sets' table: any part count; a bad owner array throws.
#pragma once

#include "graph/coo.hpp"
#include "partition/libra.hpp"

namespace distgnn {

struct PartitionQuality {
  /// Average number of clones per *touched* vertex: Σ_v |partitions(v)| / |V'|
  /// where V' are vertices with at least one edge. 1.0 means no splitting.
  double replication_factor = 1.0;
  /// max(edges per partition) / mean(edges per partition); 1.0 is perfect.
  double edge_balance = 1.0;
  /// Number of vertices present in more than one partition.
  vid_t split_vertices = 0;
  /// Vertices with at least one edge (the replication denominator).
  vid_t touched_vertices = 0;
  /// Fraction of each partition's vertices that are split, averaged over
  /// partitions (the "Split-vertices/partition %" row of Table 6).
  double split_vertex_share = 0.0;
};

PartitionQuality evaluate_partition(const EdgeList& edges, const EdgePartition& ep);

}  // namespace distgnn
