#include "partition/libra.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/rng.hpp"

namespace distgnn {

namespace {

/// Libra's partition limit: double the paper's largest run (128 sockets).
constexpr part_t kLibraMaxParts = 256;

/// A partitioner's result: its owner array and the edges-per-part histogram.
EdgePartition make_result(part_t num_parts, std::vector<part_t> edge_owner) {
  EdgePartition ep{num_parts, std::move(edge_owner),
                   std::vector<eid_t>(static_cast<std::size_t>(num_parts), 0)};
  for (const part_t p : ep.edge_owner) ++ep.edges_per_part[static_cast<std::size_t>(p)];
  return ep;
}

/// Greedy vertex-cut rule shared by the full and incremental partitioners:
/// prefer the least-loaded partition that already holds BOTH endpoints (no
/// new clone at all), then one holding EITHER endpoint (one new clone), then
/// the globally least-loaded. Candidates at/above `capacity` fall through to
/// the next tier. The intersection preference is what lets naturally
/// clustered graphs (Proteins in the paper) partition with a small
/// replication factor.
part_t greedy_pick(const Edge& edge, const CloneSets& member,
                   const std::vector<eid_t>& edges_per_part, eid_t capacity, part_t num_parts) {
  part_t best = kInvalidPart;
  eid_t best_load = std::numeric_limits<eid_t>::max();
  auto consider = [&](part_t p) {
    const eid_t load = edges_per_part[static_cast<std::size_t>(p)];
    if (load >= capacity) return;
    if (load < best_load) {
      best_load = load;
      best = p;
    }
  };
  member.for_each_shared(edge.src, edge.dst, consider);
  if (best == kInvalidPart) member.for_each_either(edge.src, edge.dst, consider);
  if (best == kInvalidPart)
    for (part_t p = 0; p < num_parts; ++p) consider(p);  // anywhere
  return best;
}

eid_t soft_capacity(std::size_t num_edges, part_t num_parts) {
  // Soft capacity keeps the greedy from piling a large cluster onto one
  // partition: candidates at/above capacity fall through to the next tier.
  // Feasible by construction (sum of loads < num_parts * capacity).
  return std::max<eid_t>(1, static_cast<eid_t>((static_cast<double>(num_edges) * 1.02) /
                                               static_cast<double>(num_parts)) +
                                1);
}

}  // namespace

CloneSets build_clone_sets(vid_t num_vertices, std::span<const Edge> edges,
                           std::span<const part_t> edge_owner, part_t num_parts) {
  if (edge_owner.size() != edges.size())
    throw std::invalid_argument("build_clone_sets: owner array size mismatch");
  CloneSets sets(num_vertices, num_parts);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const part_t p = edge_owner[e];
    if (p < 0 || p >= num_parts)
      throw std::invalid_argument("build_clone_sets: edge owner outside [0, num_parts)");
    sets.add(edges[e].src, p);
    sets.add(edges[e].dst, p);
  }
  return sets;
}

EdgePartition partition_libra(const EdgeList& edges, part_t num_parts, std::uint64_t seed) {
  if (num_parts < 1 || num_parts > kLibraMaxParts)
    throw std::invalid_argument("partition_libra: num_parts out of range [1, 256]");
  EdgePartition ep{num_parts, std::vector<part_t>(edges.edges.size(), kInvalidPart),
                   std::vector<eid_t>(static_cast<std::size_t>(num_parts), 0)};
  CloneSets member(edges.num_vertices, num_parts);

  // Shuffled edge visiting order decorrelates the stream from generator
  // artifacts; the assignment itself is deterministic given the order.
  std::vector<eid_t> order(edges.edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<eid_t>(i);
  Rng rng(seed ^ 0x11b7a);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next_below(i)]);

  const eid_t capacity = soft_capacity(edges.edges.size(), num_parts);

  for (const eid_t e : order) {
    const Edge& edge = edges.edges[static_cast<std::size_t>(e)];
    const part_t best = greedy_pick(edge, member, ep.edges_per_part, capacity, num_parts);
    ep.edge_owner[static_cast<std::size_t>(e)] = best;
    ++ep.edges_per_part[static_cast<std::size_t>(best)];
    member.add(edge.src, best);
    member.add(edge.dst, best);
  }
  return ep;
}

void extend_partition_libra(EdgePartition& partition, const EdgeList& post_edges,
                            const std::vector<eid_t>& removed_edge_indices,
                            std::size_t num_inserted) {
  const part_t num_parts = partition.num_parts;
  if (num_parts < 1 || num_parts > kLibraMaxParts)
    throw std::invalid_argument("extend_partition_libra: num_parts out of range [1, 256]");
  const std::size_t survivors = partition.edge_owner.size() - removed_edge_indices.size();
  if (survivors + num_inserted != post_edges.edges.size())
    throw std::invalid_argument("extend_partition_libra: edge counts do not reconcile");

  // Compact the owner array past the removals: surviving edges keep their
  // owner (feature shards stay put), removed ones drop out of the histogram.
  std::vector<bool> removed(partition.edge_owner.size(), false);
  for (const eid_t e : removed_edge_indices) removed[static_cast<std::size_t>(e)] = true;
  std::vector<part_t> owner;
  owner.reserve(post_edges.edges.size());
  for (std::size_t e = 0; e < partition.edge_owner.size(); ++e)
    if (!removed[e]) owner.push_back(partition.edge_owner[e]);

  // Rebuild clone sets and loads from the survivors only, so a partition
  // whose last clone of a vertex vanished no longer attracts its new edges.
  CloneSets member = build_clone_sets(
      post_edges.num_vertices, std::span(post_edges.edges).first(survivors), owner, num_parts);
  std::vector<eid_t> edges_per_part(static_cast<std::size_t>(num_parts), 0);
  for (const part_t p : owner) ++edges_per_part[static_cast<std::size_t>(p)];

  const eid_t capacity = soft_capacity(post_edges.edges.size(), num_parts);
  for (std::size_t e = survivors; e < post_edges.edges.size(); ++e) {
    const Edge& edge = post_edges.edges[e];
    const part_t best = greedy_pick(edge, member, edges_per_part, capacity, num_parts);
    owner.push_back(best);
    ++edges_per_part[static_cast<std::size_t>(best)];
    member.add(edge.src, best);
    member.add(edge.dst, best);
  }

  partition.edge_owner = std::move(owner);
  partition.edges_per_part = std::move(edges_per_part);
}

EdgePartition partition_random(const EdgeList& edges, part_t num_parts, std::uint64_t seed) {
  if (num_parts < 1) throw std::invalid_argument("partition_random: num_parts must be >= 1");
  std::vector<part_t> owner(edges.edges.size());
  Rng rng(seed ^ 0xabad1dea);
  for (part_t& p : owner)
    p = static_cast<part_t>(rng.next_below(static_cast<std::uint64_t>(num_parts)));
  return make_result(num_parts, std::move(owner));
}

EdgePartition partition_source_hash(const EdgeList& edges, part_t num_parts) {
  if (num_parts < 1) throw std::invalid_argument("partition_source_hash: num_parts must be >= 1");
  std::vector<part_t> owner(edges.edges.size());
  for (std::size_t e = 0; e < owner.size(); ++e) {
    // Fibonacci hash of the source id.
    const auto h = static_cast<std::uint64_t>(edges.edges[e].src) * 0x9e3779b97f4a7c15ULL;
    owner[e] = static_cast<part_t>(h % static_cast<std::uint64_t>(num_parts));
  }
  return make_result(num_parts, std::move(owner));
}

EdgePartition partition_range(const EdgeList& edges, part_t num_parts) {
  if (num_parts < 1) throw std::invalid_argument("partition_range: num_parts must be >= 1");
  std::vector<part_t> owner(edges.edges.size());
  const vid_t span = (edges.num_vertices + num_parts - 1) / num_parts;
  for (std::size_t e = 0; e < owner.size(); ++e)
    owner[e] = static_cast<part_t>(edges.edges[e].src / span);
  return make_result(num_parts, std::move(owner));
}

EdgePartition partition_edges(const EdgeList& edges, part_t num_parts, PartitionStrategy strategy,
                              std::uint64_t seed) {
  switch (strategy) {
    case PartitionStrategy::kLibra: return partition_libra(edges, num_parts, seed);
    case PartitionStrategy::kRandom: return partition_random(edges, num_parts, seed);
    case PartitionStrategy::kSourceHash: return partition_source_hash(edges, num_parts);
    case PartitionStrategy::kRange: return partition_range(edges, num_parts);
  }
  throw std::invalid_argument("partition_edges: unknown strategy");
}

}  // namespace distgnn
