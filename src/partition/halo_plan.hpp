// Communication plans for the split-vertex 1-level trees (§5.3 / Alg. 4).
//
// For every split tree, leaves push partial aggregates to the root, the root
// scatter-reduces them and pushes the final aggregate back. The plan
// pre-computes, per partition × bin × peer, the local indices to gather from
// and scatter into, with matching order on both sides of every channel so a
// flat float payload of `count * feature_dim` can be exchanged with no
// per-message metadata.
//
// Trees are binned tree_id % num_bins; cd-r communicates only one bin per
// epoch (the "subset of split-vertices (through binning)" of §5.3), while
// cd-0 uses num_bins == 1 and syncs every tree every epoch.
#pragma once

#include <span>
#include <vector>

#include "partition/partition_setup.hpp"

namespace distgnn {

/// The two index lists of one partition for one (bin, peer) pair. Each is
/// one end of both of the pair's channels: leaf->root gathers `leaf` here and
/// adds into the peer's `root`; root->leaf gathers `root` here and sets the
/// peer's `leaf`.
struct HaloPeerLists {
  std::vector<vid_t> leaf;  // my leaf locals of the trees this peer roots
  std::vector<vid_t> root;  // my root locals, once per leaf this peer holds
};

/// Plan for one partition: lists[bin][peer].
struct HaloPlan {
  int num_bins = 1;
  part_t num_parts = 0;
  std::vector<std::vector<HaloPeerLists>> lists;  // [bin][peer]

  const HaloPeerLists& peer(int bin, part_t p) const {
    return lists[static_cast<std::size_t>(bin)][static_cast<std::size_t>(p)];
  }
};

/// Builds plans for all partitions; result[p] is partition p's plan.
std::vector<HaloPlan> build_halo_plans(const PartitionedGraph& pg, int num_bins);

/// `plan` restricted to the entries whose local index v has row_map[v] >= 0,
/// each replaced by row_map[v] (e.g. a compact row id). Every list keeps its
/// order, so the two ends of a channel stay aligned as long as `row_map`
/// keeps or drops all clones of a tree alike, as a per-global-vertex
/// predicate does.
HaloPlan restrict_halo_plan(const HaloPlan& plan, std::span<const vid_t> row_map);

}  // namespace distgnn
