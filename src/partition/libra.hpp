// Libra-style vertex-cut graph partitioning (§5.1 of the paper, after
// Xie et al., "Distributed Power-law Graph Computing").
//
// Edges are distributed over partitions; a vertex whose edges land in
// several partitions is *split* and replicated there. Libra's greedy rule
// assigns each edge to the least-loaded partition among those already
// holding one of its endpoints (falling back to the globally least-loaded),
// which keeps the replication factor low on power-law graphs while producing
// near-perfectly edge-balanced partitions.
//
// CloneSets is the vertex cut's one clone table. Libra's greedy grows it edge
// by edge; build_clone_sets fills it for re-partitioning, placement and stats.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/coo.hpp"
#include "util/types.hpp"

namespace distgnn {

/// Result of any edge partitioner: the owning partition of every edge.
struct EdgePartition {
  part_t num_parts = 0;
  std::vector<part_t> edge_owner;       // |E| entries
  std::vector<eid_t> edges_per_part;    // histogram, num_parts entries
};

/// Which parts hold a clone of each vertex: one bit per (vertex, part).
class CloneSets {
 public:
  CloneSets() = default;
  CloneSets(vid_t num_vertices, part_t num_parts)
      : stride_((static_cast<std::size_t>(num_parts) + 63) / 64),
        words_(static_cast<std::size_t>(num_vertices) * stride_, 0) {}

  void add(vid_t v, part_t p) { words_[at(v) + (p >> 6)] |= std::uint64_t{1} << (p & 63); }
  /// Number of parts holding v.
  int count(vid_t v) const {
    int n = 0;
    for (std::size_t w = 0; w < stride_; ++w) n += std::popcount(words_[at(v) + w]);
    return n;
  }
  /// f(p) for each part holding v; for each holding both u and v; for each
  /// holding u or v. Parts come in ascending order.
  template <class F> void for_each(vid_t v, F&& f) const { scan(v, v, std::bit_and<>{}, f); }
  template <class F> void for_each_shared(vid_t u, vid_t v, F&& f) const {
    scan(u, v, std::bit_and<>{}, f);
  }
  template <class F> void for_each_either(vid_t u, vid_t v, F&& f) const {
    scan(u, v, std::bit_or<>{}, f);
  }

 private:
  std::size_t at(vid_t v) const { return static_cast<std::size_t>(v) * stride_; }
  template <class Op, class F> void scan(vid_t u, vid_t v, Op op, F& f) const {
    for (std::size_t w = 0; w < stride_; ++w)
      for (std::uint64_t bits = op(words_[at(u) + w], words_[at(v) + w]); bits; bits &= bits - 1)
        f(static_cast<part_t>(w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
  }

  std::size_t stride_ = 0;  // ⌈num_parts / 64⌉ words per vertex
  std::vector<std::uint64_t> words_;
};

/// The clone sets of an edge assignment: each vertex is in the parts of its
/// edges. Throws std::invalid_argument unless there is one owner per edge,
/// each in [0, num_parts).
CloneSets build_clone_sets(vid_t num_vertices, std::span<const Edge> edges,
                           std::span<const part_t> edge_owner, part_t num_parts);

enum class PartitionStrategy {
  kLibra,       // greedy vertex-cut (the paper's choice)
  kRandom,      // uniform random edge assignment (worst-case replication)
  kSourceHash,  // hash(src) — an edge-cut-like 1D baseline
  kRange,       // contiguous source ranges — locality-preserving 1D baseline
};

/// Partitions `edges` into `num_parts` using the Libra greedy vertex-cut.
/// Deterministic for a fixed seed (ties are broken by partition index).
EdgePartition partition_libra(const EdgeList& edges, part_t num_parts, std::uint64_t seed = 0);

/// Incremental libra for streaming graph updates (src/stream). `partition`
/// is aligned with the PRE-delta edge list; `post_edges` is the post-delta
/// list: surviving edges in original order, then `num_inserted` appended
/// ones. Removed edges (given by their pre-delta indices) drop out of the
/// owner array and histogram; the clone sets are rebuilt from the
/// survivors; inserted edges are then greedy-assigned in order with the same
/// intersection -> union -> anywhere rule and a soft capacity sized to the
/// grown edge count. O(|E|) per call — full repartitioning quality erodes
/// over many deltas, but owners of surviving edges never move, which is what
/// keeps a live ShardedServer's feature shards stable across a delta.
void extend_partition_libra(EdgePartition& partition, const EdgeList& post_edges,
                            const std::vector<eid_t>& removed_edge_indices,
                            std::size_t num_inserted);

/// Baseline partitioners for comparison benches.
EdgePartition partition_random(const EdgeList& edges, part_t num_parts, std::uint64_t seed = 0);
EdgePartition partition_source_hash(const EdgeList& edges, part_t num_parts);
EdgePartition partition_range(const EdgeList& edges, part_t num_parts);

EdgePartition partition_edges(const EdgeList& edges, part_t num_parts, PartitionStrategy strategy,
                              std::uint64_t seed = 0);

}  // namespace distgnn
