// Partition setup (§5.2 of the paper): materializes per-partition local
// graphs from an edge partition, assigns consecutive local vertex IDs
// partition-by-partition, records the global `vertex_map` of ID ranges, and
// discovers split vertices with their 1-level clone trees (one clone is the
// root, the rest are leaves), read from the one clone table (CloneSets).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coo.hpp"
#include "partition/libra.hpp"
#include "util/matrix.hpp"

namespace distgnn {

struct LocalPartition {
  part_t id = 0;
  vid_t num_vertices = 0;  // local vertex count (split + non-split)
  /// Local subgraph; endpoints are partition-local indices in [0, num_vertices).
  EdgeList edges;
  /// local index -> original (global) vertex id, ascending.
  std::vector<vid_t> global_ids;
  /// Global in-degree of each local vertex — the cd-0/cd-r GCN normalizer,
  /// so a fully synchronized aggregate matches the single-socket result.
  std::vector<eid_t> global_in_degree;
  std::vector<std::uint8_t> is_split;  // vertex has clones elsewhere
  std::vector<std::uint8_t> is_root;   // this clone is its tree's root
  /// Global split-tree index (dense, shared across partitions); -1 if not split.
  std::vector<std::int64_t> tree_id;
  /// Exactly one clone per global vertex carries the label (the root), so
  /// distributed loss terms are not double counted.
  std::vector<std::uint8_t> owns_label;
};

struct PartitionedGraph {
  part_t num_parts = 0;
  vid_t num_global_vertices = 0;
  std::vector<LocalPartition> parts;
  /// vertex_map[p] .. vertex_map[p+1] is partition p's global local-ID range.
  std::vector<vid_t> vertex_map;
  std::int64_t num_split_trees = 0;

  vid_t global_local_id(part_t p, vid_t local) const { return vertex_map[static_cast<std::size_t>(p)] + local; }
  vid_t total_local_vertices() const { return vertex_map.back(); }
};

/// Where a vertex-cut places each vertex's clones: `parts` is the clone table
/// of its edges (build_clone_sets; any part count, a bad owner throws). root[v]
/// is the one part whose clone is v's root and owns its label: the only part
/// of an unsplit vertex, a hash of (v, seed) among the ascending parts of a
/// split one, and kInvalidPart for a vertex in no edge.
struct VertexPlacement {
  CloneSets parts;
  std::vector<part_t> root;
};

VertexPlacement place_vertices(const EdgeList& edges, const EdgePartition& ep,
                               std::uint64_t seed = 0);

/// Builds all partitions, with place_vertices' clones and roots.
PartitionedGraph build_partitions(const EdgeList& edges, const EdgePartition& ep,
                                  std::uint64_t seed = 0);

/// Slices global per-vertex data down to one partition's local vertices.
DenseMatrix gather_local_features(const LocalPartition& part, ConstMatrixView global_features);
std::vector<int> gather_local_labels(const LocalPartition& part, const std::vector<int>& labels);
/// Masks are additionally AND-ed with owns_label so each global vertex
/// contributes its loss exactly once across the cluster.
std::vector<std::uint8_t> gather_local_mask(const LocalPartition& part,
                                            const std::vector<std::uint8_t>& mask);

}  // namespace distgnn
