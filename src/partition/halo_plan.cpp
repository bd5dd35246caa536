#include "partition/halo_plan.hpp"

#include <stdexcept>

namespace distgnn {

std::vector<HaloPlan> build_halo_plans(const PartitionedGraph& pg, int num_bins) {
  if (num_bins < 1) throw std::invalid_argument("build_halo_plans: num_bins must be >= 1");

  std::vector<HaloPlan> plans(static_cast<std::size_t>(pg.num_parts));
  for (auto& plan : plans) {
    plan.num_bins = num_bins;
    plan.num_parts = pg.num_parts;
    plan.lists.assign(static_cast<std::size_t>(num_bins),
                      std::vector<HaloPeerLists>(static_cast<std::size_t>(pg.num_parts)));
  }

  // Collect clone locations per tree: (partition, local index, is_root).
  struct Clone {
    part_t part;
    vid_t local;
    bool root;
  };
  std::vector<std::vector<Clone>> tree_clones(static_cast<std::size_t>(pg.num_split_trees));
  for (const LocalPartition& lp : pg.parts) {
    for (vid_t local = 0; local < lp.num_vertices; ++local) {
      const auto li = static_cast<std::size_t>(local);
      if (!lp.is_split[li]) continue;
      tree_clones[static_cast<std::size_t>(lp.tree_id[li])].push_back(
          {lp.id, local, lp.is_root[li] != 0});
    }
  }

  // Ascending tree order on both sides of every channel keeps the gather and
  // scatter index lists aligned.
  for (std::int64_t t = 0; t < pg.num_split_trees; ++t) {
    const auto& clones = tree_clones[static_cast<std::size_t>(t)];
    const int bin = static_cast<int>(t % num_bins);
    const Clone* root = nullptr;
    for (const Clone& c : clones)
      if (c.root) root = &c;
    if (root == nullptr)
      throw std::logic_error("build_halo_plans: split tree without a root clone");

    for (const Clone& leaf : clones) {
      if (leaf.root) continue;
      auto& leaf_plan = plans[static_cast<std::size_t>(leaf.part)].lists[static_cast<std::size_t>(bin)];
      auto& root_plan = plans[static_cast<std::size_t>(root->part)].lists[static_cast<std::size_t>(bin)];
      leaf_plan[static_cast<std::size_t>(root->part)].leaf.push_back(leaf.local);
      root_plan[static_cast<std::size_t>(leaf.part)].root.push_back(root->local);
    }
  }
  return plans;
}

HaloPlan restrict_halo_plan(const HaloPlan& plan, std::span<const vid_t> row_map) {
  const auto restrict = [&](const std::vector<vid_t>& rows) {
    std::vector<vid_t> out;
    for (const vid_t v : rows) {
      if (v < 0 || static_cast<std::size_t>(v) >= row_map.size())
        throw std::out_of_range("restrict_halo_plan: local index outside the row map");
      const vid_t mapped = row_map[static_cast<std::size_t>(v)];
      if (mapped >= 0) out.push_back(mapped);
    }
    return out;
  };
  HaloPlan out;
  out.num_bins = plan.num_bins;
  out.num_parts = plan.num_parts;
  out.lists.resize(plan.lists.size());
  for (std::size_t bin = 0; bin < plan.lists.size(); ++bin) {
    for (const HaloPeerLists& pl : plan.lists[bin])
      out.lists[bin].push_back({restrict(pl.leaf), restrict(pl.root)});
  }
  return out;
}

}  // namespace distgnn
