#include "partition/partition_setup.hpp"

#include <algorithm>
#include <unordered_map>

namespace distgnn {

VertexPlacement place_vertices(const EdgeList& edges, const EdgePartition& ep,
                               std::uint64_t seed) {
  VertexPlacement out;
  out.parts = build_clone_sets(edges.num_vertices, edges.edges, ep.edge_owner, ep.num_parts);
  out.root.assign(static_cast<std::size_t>(edges.num_vertices), kInvalidPart);
  for (vid_t v = 0; v < edges.num_vertices; ++v) {
    const int n = out.parts.count(v);
    if (n == 0) continue;
    const std::uint64_t h = (static_cast<std::uint64_t>(v) + seed) * 0x9e3779b97f4a7c15ULL;
    auto k = static_cast<int>(h % static_cast<std::uint64_t>(n));
    out.parts.for_each(v, [&](part_t p) {
      if (k-- == 0) out.root[static_cast<std::size_t>(v)] = p;
    });
  }
  return out;
}

PartitionedGraph build_partitions(const EdgeList& edges, const EdgePartition& ep,
                                  std::uint64_t seed) {
  const VertexPlacement placement = place_vertices(edges, ep, seed);

  PartitionedGraph pg;
  pg.num_parts = ep.num_parts;
  pg.num_global_vertices = edges.num_vertices;
  pg.parts.resize(static_cast<std::size_t>(ep.num_parts));

  // Global in-degree (the GCN normalizer must be partition-independent).
  std::vector<eid_t> global_in_degree(static_cast<std::size_t>(edges.num_vertices), 0);
  for (const Edge& e : edges.edges) ++global_in_degree[static_cast<std::size_t>(e.dst)];

  // Local vertex sets in ascending global order; split-tree ids in
  // ascending global-vertex order.
  std::vector<std::unordered_map<vid_t, vid_t>> local_of(
      static_cast<std::size_t>(ep.num_parts));
  for (vid_t gv = 0; gv < edges.num_vertices; ++gv) {
    const part_t root = placement.root[static_cast<std::size_t>(gv)];
    const bool split = placement.parts.count(gv) > 1;
    const std::int64_t tree = split ? pg.num_split_trees++ : -1;
    placement.parts.for_each(gv, [&](part_t p) {
      LocalPartition& lp = pg.parts[static_cast<std::size_t>(p)];
      const vid_t local = lp.num_vertices++;
      local_of[static_cast<std::size_t>(p)].emplace(gv, local);
      lp.global_ids.push_back(gv);
      lp.global_in_degree.push_back(global_in_degree[static_cast<std::size_t>(gv)]);
      lp.is_split.push_back(split ? 1 : 0);
      lp.is_root.push_back(split && p == root ? 1 : 0);
      lp.tree_id.push_back(tree);
      lp.owns_label.push_back(p == root ? 1 : 0);
    });
  }

  // Remap edges into local indices.
  for (part_t p = 0; p < ep.num_parts; ++p) {
    LocalPartition& lp = pg.parts[static_cast<std::size_t>(p)];
    lp.id = p;
    lp.edges.num_vertices = lp.num_vertices;
    lp.edges.edges.reserve(static_cast<std::size_t>(ep.edges_per_part[static_cast<std::size_t>(p)]));
  }
  for (std::size_t e = 0; e < edges.edges.size(); ++e) {
    const part_t p = ep.edge_owner[e];
    const auto& map = local_of[static_cast<std::size_t>(p)];
    pg.parts[static_cast<std::size_t>(p)].edges.add(map.at(edges.edges[e].src),
                                                    map.at(edges.edges[e].dst));
  }

  // vertex_map: consecutive global local-ID ranges, partition 0 first (§5.2).
  pg.vertex_map.resize(static_cast<std::size_t>(ep.num_parts) + 1, 0);
  for (part_t p = 0; p < ep.num_parts; ++p)
    pg.vertex_map[static_cast<std::size_t>(p) + 1] =
        pg.vertex_map[static_cast<std::size_t>(p)] + pg.parts[static_cast<std::size_t>(p)].num_vertices;
  return pg;
}

DenseMatrix gather_local_features(const LocalPartition& part, ConstMatrixView global_features) {
  DenseMatrix out(static_cast<std::size_t>(part.num_vertices), global_features.cols);
  for (vid_t local = 0; local < part.num_vertices; ++local) {
    const real_t* src = global_features.row(static_cast<std::size_t>(part.global_ids[static_cast<std::size_t>(local)]));
    real_t* dst = out.row(static_cast<std::size_t>(local));
    std::copy(src, src + global_features.cols, dst);
  }
  return out;
}

std::vector<int> gather_local_labels(const LocalPartition& part, const std::vector<int>& labels) {
  std::vector<int> out(static_cast<std::size_t>(part.num_vertices));
  for (vid_t local = 0; local < part.num_vertices; ++local)
    out[static_cast<std::size_t>(local)] =
        labels[static_cast<std::size_t>(part.global_ids[static_cast<std::size_t>(local)])];
  return out;
}

std::vector<std::uint8_t> gather_local_mask(const LocalPartition& part,
                                            const std::vector<std::uint8_t>& mask) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(part.num_vertices));
  for (vid_t local = 0; local < part.num_vertices; ++local) {
    const auto li = static_cast<std::size_t>(local);
    out[li] = mask[static_cast<std::size_t>(part.global_ids[li])] & part.owns_label[li];
  }
  return out;
}

}  // namespace distgnn
