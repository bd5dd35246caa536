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

/// The four index lists of one partition for one (bin, peer) pair.
struct HaloPeerLists {
  std::vector<vid_t> send_leaf;  // my leaf locals whose partials go to this peer's roots
  std::vector<vid_t> recv_root;  // my root locals receiving this peer's leaf partials (reduce +=)
  std::vector<vid_t> send_root;  // my root locals whose totals return to this peer's leaves
  std::vector<vid_t> recv_leaf;  // my leaf locals overwritten by this peer's root totals
};

/// Plan for one partition: lists[bin][peer].
struct HaloPlan {
  int num_bins = 1;
  part_t num_parts = 0;
  std::vector<std::vector<HaloPeerLists>> lists;  // [bin][peer]

  const HaloPeerLists& peer(int bin, part_t p) const {
    return lists[static_cast<std::size_t>(bin)][static_cast<std::size_t>(p)];
  }

  /// Total vertices this partition sends in the leaf->root phase of a bin.
  std::size_t leaf_send_volume(int bin) const;
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
