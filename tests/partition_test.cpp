#include <gtest/gtest.h>

#include <map>
#include <set>

#include "graph/generators.hpp"
#include "partition/halo_plan.hpp"
#include "partition/libra.hpp"
#include "partition/partition_setup.hpp"
#include "partition/partition_stats.hpp"

namespace distgnn {
namespace {

EdgeList test_graph(vid_t n = 2048, eid_t m = 16384, std::uint64_t seed = 7) {
  return generate_rmat({.num_vertices = n, .num_edges = m, .seed = seed});
}

class StrategyTest : public ::testing::TestWithParam<std::tuple<PartitionStrategy, part_t>> {};

TEST_P(StrategyTest, EveryEdgeAssignedExactlyOnce) {
  const auto [strategy, parts] = GetParam();
  const EdgeList el = test_graph();
  const EdgePartition ep = partition_edges(el, parts, strategy, 1);
  ASSERT_EQ(ep.edge_owner.size(), el.edges.size());
  eid_t total = 0;
  for (const part_t p : ep.edge_owner) {
    EXPECT_GE(p, 0);
    EXPECT_LT(p, parts);
  }
  for (const eid_t c : ep.edges_per_part) total += c;
  EXPECT_EQ(total, el.num_edges());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StrategyTest,
    ::testing::Combine(::testing::Values(PartitionStrategy::kLibra, PartitionStrategy::kRandom,
                                         PartitionStrategy::kSourceHash, PartitionStrategy::kRange),
                       ::testing::Values(part_t{1}, part_t{2}, part_t{5}, part_t{16})));

TEST(Libra, SinglePartitionHasNoSplits) {
  const EdgeList el = test_graph(256, 1024);
  const EdgePartition ep = partition_libra(el, 1);
  const PartitionQuality q = evaluate_partition(el, ep);
  EXPECT_DOUBLE_EQ(q.replication_factor, 1.0);
  EXPECT_EQ(q.split_vertices, 0);
}

TEST(Libra, ProducesBalancedPartitions) {
  const EdgeList el = test_graph(4096, 65536);
  for (const part_t parts : {2, 4, 8, 16}) {
    const EdgePartition ep = partition_libra(el, parts);
    const PartitionQuality q = evaluate_partition(el, ep);
    EXPECT_LT(q.edge_balance, 1.05) << parts << " partitions";
  }
}

TEST(Libra, ReplicationGrowsWithPartitionCount) {
  // Table 4's structural property: more partitions -> more clones.
  const EdgeList el = test_graph(4096, 65536);
  double prev = 1.0;
  for (const part_t parts : {2, 4, 8, 16}) {
    const PartitionQuality q = evaluate_partition(el, partition_libra(el, parts));
    EXPECT_GT(q.replication_factor, prev);
    prev = q.replication_factor;
  }
}

TEST(Libra, BeatsRandomOnReplication) {
  const EdgeList el = test_graph(4096, 65536);
  const PartitionQuality libra = evaluate_partition(el, partition_libra(el, 8));
  const PartitionQuality random = evaluate_partition(el, partition_random(el, 8));
  EXPECT_LT(libra.replication_factor, random.replication_factor);
}

TEST(Libra, ClusteredGraphPartitionsBetterThanUnclusteredOne) {
  // Proteins-vs-Reddit contrast of Table 4: community structure gives a
  // smaller replication factor at the same size and degree, because the
  // intersection-first greedy keeps whole clusters co-located.
  SbmParams sp;
  sp.num_vertices = 4096;
  sp.num_blocks = 64;
  sp.avg_degree = 16;
  sp.in_out_ratio = 24.0;
  const EdgeList clustered = generate_sbm(sp).edges;
  const EdgeList uniform = generate_erdos_renyi(4096, 8 * 4096, 3);
  const double rep_clustered =
      evaluate_partition(clustered, partition_libra(clustered, 8)).replication_factor;
  const double rep_uniform =
      evaluate_partition(uniform, partition_libra(uniform, 8)).replication_factor;
  EXPECT_LT(rep_clustered, rep_uniform);
}

TEST(Libra, DeterministicForSeed) {
  const EdgeList el = test_graph(512, 4096);
  const EdgePartition a = partition_libra(el, 4, 9);
  const EdgePartition b = partition_libra(el, 4, 9);
  EXPECT_EQ(a.edge_owner, b.edge_owner);
}

// ---- the exact cut ----

/// FNV-1a over the little-endian bytes of 64-bit values.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::int64_t x) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (static_cast<std::uint64_t>(x) >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  }
};

std::vector<part_t> parts_of(const CloneSets& sets, vid_t v) {
  std::vector<part_t> parts;
  sets.for_each(v, [&](part_t p) { parts.push_back(p); });
  return parts;
}

struct GoldenCut {
  part_t parts;
  std::uint64_t owners;     // FNV-1a of partition_libra's edge_owner
  std::uint64_t placement;  // FNV-1a of place_vertices' parts and roots
  double replication_factor;
};

// Pins Libra's exact edge assignment, the clone placement and the
// replication factor on the rmat test graph (Libra seed 3, root seed 5).
// Any change to the greedy, its tie-breaking or the root hash shows here.
TEST(Libra, ExactCutIsPinned) {
  const EdgeList el = test_graph();
  const GoldenCut golden[] = {
      {1, 0x9c735bed0a722325ULL, 0x1cdcb3a5df95554cULL, 1.0},
      {2, 0x22cdf3d05761ae85ULL, 0xdbf54a0f26a2db2fULL, 1.3350819672131147},
      {5, 0xd3728eac6ec86ea1ULL, 0x45bb0febbdb68e6dULL, 1.9554098360655738},
      {16, 0x65003254ec76cca6ULL, 0xa4599edc7b9cf925ULL, 2.9836065573770494},
      {64, 0x26e5c54e619be6a8ULL, 0xd9b954e3570da847ULL, 4.496393442622951},
      {65, 0x69bb44ab793e7281ULL, 0x167f761a34d4b75dULL, 4.5016393442622951},
      {130, 0x0eaf5ee8b666c452ULL, 0xf86cf81100c1da8dULL, 5.3121311475409838},
      {256, 0xdf064c257a9b7aa0ULL, 0xdc7e0c7f6567a519ULL, 9.0052459016393449},
  };
  for (const GoldenCut& g : golden) {
    const EdgePartition ep = partition_libra(el, g.parts, 3);
    Fnv1a owners;
    for (const part_t p : ep.edge_owner) owners.add(p);
    const VertexPlacement placement = place_vertices(el, ep, 5);
    Fnv1a placed;
    for (vid_t v = 0; v < el.num_vertices; ++v) {
      const std::vector<part_t> parts = parts_of(placement.parts, v);
      placed.add(static_cast<std::int64_t>(parts.size()));
      for (const part_t p : parts) placed.add(p);
      placed.add(placement.root[static_cast<std::size_t>(v)]);
    }
    EXPECT_EQ(owners.h, g.owners) << g.parts << " parts";
    EXPECT_EQ(placed.h, g.placement) << g.parts << " parts";
    EXPECT_EQ(evaluate_partition(el, ep).replication_factor, g.replication_factor)
        << g.parts << " parts";
  }
}

TEST(Libra, RejectsBadPartitionCounts) {
  const EdgeList el = test_graph(64, 128);
  EXPECT_THROW(partition_libra(el, 0), std::invalid_argument);
  EXPECT_THROW(partition_libra(el, 300), std::invalid_argument);
}

// ---- the clone table against a naive reference ----

/// Each vertex's parts as a std::set, from the edges and their owners.
std::vector<std::set<part_t>> reference_parts(const EdgeList& el, const EdgePartition& ep) {
  std::vector<std::set<part_t>> parts(static_cast<std::size_t>(el.num_vertices));
  for (std::size_t e = 0; e < el.edges.size(); ++e) {
    parts[static_cast<std::size_t>(el.edges[e].src)].insert(ep.edge_owner[e]);
    parts[static_cast<std::size_t>(el.edges[e].dst)].insert(ep.edge_owner[e]);
  }
  return parts;
}

void expect_matches_reference(const EdgeList& el, const EdgePartition& ep) {
  const auto reference = reference_parts(el, ep);
  const CloneSets sets =
      build_clone_sets(el.num_vertices, el.edges, ep.edge_owner, ep.num_parts);
  const VertexPlacement placement = place_vertices(el, ep, 5);
  std::uint64_t clones = 0;
  vid_t touched = 0, split = 0;
  for (vid_t v = 0; v < el.num_vertices; ++v) {
    const std::set<part_t>& want = reference[static_cast<std::size_t>(v)];
    const std::vector<part_t> want_sorted(want.begin(), want.end());
    EXPECT_EQ(parts_of(sets, v), want_sorted) << "vertex " << v;
    EXPECT_EQ(sets.count(v), static_cast<int>(want.size())) << "vertex " << v;
    EXPECT_EQ(parts_of(placement.parts, v), want_sorted) << "vertex " << v;
    const part_t root = placement.root[static_cast<std::size_t>(v)];
    if (want.empty()) {
      EXPECT_EQ(root, kInvalidPart) << "vertex " << v;
      continue;
    }
    const std::uint64_t h = (static_cast<std::uint64_t>(v) + 5) * 0x9e3779b97f4a7c15ULL;
    EXPECT_EQ(root, want_sorted[h % want_sorted.size()]) << "vertex " << v;
    ++touched;
    clones += want.size();
    if (want.size() > 1) ++split;
  }
  const PartitionQuality q = evaluate_partition(el, ep);
  EXPECT_EQ(q.touched_vertices, touched);
  EXPECT_EQ(q.split_vertices, split);
  EXPECT_EQ(q.replication_factor, static_cast<double>(clones) / static_cast<double>(touched));
}

// Part counts on both sides of the 64-part word boundaries. The random
// partitioner has no part limit; 300 parts shows only Libra keeps its 256.
TEST(CloneSets, MatchReferenceAcrossWordBoundaries) {
  const EdgeList el = test_graph();
  for (const part_t parts : {63, 64, 65, 128, 129, 300}) {
    SCOPED_TRACE(::testing::Message() << "random, " << parts << " parts");
    expect_matches_reference(el, partition_random(el, parts, 2));
  }
  for (const part_t parts : {65, 256}) {
    SCOPED_TRACE(::testing::Message() << "libra, " << parts << " parts");
    expect_matches_reference(el, partition_libra(el, parts, 3));
  }
}

TEST(CloneSets, RejectOwnersOutsideThePartRange) {
  const EdgeList el = test_graph(64, 128);
  for (const part_t bad : {part_t{-1}, part_t{4}, part_t{64}}) {
    EdgePartition ep = partition_random(el, 4, 1);
    ep.edge_owner[7] = bad;
    EXPECT_THROW(build_clone_sets(el.num_vertices, el.edges, ep.edge_owner, ep.num_parts),
                 std::invalid_argument)
        << "owner " << bad;
    EXPECT_THROW(place_vertices(el, ep), std::invalid_argument) << "owner " << bad;
    EXPECT_THROW(evaluate_partition(el, ep), std::invalid_argument) << "owner " << bad;
  }
  EdgePartition short_owner = partition_random(el, 4, 1);
  short_owner.edge_owner.pop_back();
  EXPECT_THROW(place_vertices(el, short_owner), std::invalid_argument);
  EXPECT_THROW(evaluate_partition(el, short_owner), std::invalid_argument);
}

// ---- partition setup ----

class SetupTest : public ::testing::TestWithParam<part_t> {
 protected:
  void SetUp() override {
    el_ = test_graph(1024, 8192, 11);
    ep_ = partition_libra(el_, GetParam());
    pg_ = build_partitions(el_, ep_, 5);
  }
  EdgeList el_;
  EdgePartition ep_;
  PartitionedGraph pg_;
};

TEST_P(SetupTest, LocalEdgeCountsMatchAssignment) {
  for (part_t p = 0; p < pg_.num_parts; ++p)
    EXPECT_EQ(pg_.parts[static_cast<std::size_t>(p)].edges.num_edges(),
              ep_.edges_per_part[static_cast<std::size_t>(p)]);
}

TEST_P(SetupTest, LocalEdgesMapBackToGlobalEdges) {
  std::multiset<std::pair<vid_t, vid_t>> global;
  for (const Edge& e : el_.edges) global.insert({e.src, e.dst});
  std::multiset<std::pair<vid_t, vid_t>> reconstructed;
  for (const LocalPartition& lp : pg_.parts)
    for (const Edge& e : lp.edges.edges)
      reconstructed.insert({lp.global_ids[static_cast<std::size_t>(e.src)],
                            lp.global_ids[static_cast<std::size_t>(e.dst)]});
  EXPECT_EQ(global, reconstructed);
}

TEST_P(SetupTest, ExactlyOneRootPerSplitTree) {
  std::map<std::int64_t, int> roots, clones;
  for (const LocalPartition& lp : pg_.parts) {
    for (vid_t v = 0; v < lp.num_vertices; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (lp.tree_id[vi] < 0) continue;
      ++clones[lp.tree_id[vi]];
      if (lp.is_root[vi]) ++roots[lp.tree_id[vi]];
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(clones.size()), pg_.num_split_trees);
  for (const auto& [tree, count] : clones) {
    EXPECT_GE(count, 2) << "tree " << tree;
    EXPECT_EQ(roots[tree], 1) << "tree " << tree;
  }
}

TEST_P(SetupTest, LabelOwnedExactlyOncePerVertex) {
  std::map<vid_t, int> owners;
  for (const LocalPartition& lp : pg_.parts)
    for (vid_t v = 0; v < lp.num_vertices; ++v)
      if (lp.owns_label[static_cast<std::size_t>(v)])
        ++owners[lp.global_ids[static_cast<std::size_t>(v)]];
  for (const auto& [gv, count] : owners) EXPECT_EQ(count, 1) << "vertex " << gv;
  // Every touched vertex has exactly one owner.
  const PartitionQuality q = evaluate_partition(el_, ep_);
  EXPECT_EQ(static_cast<vid_t>(owners.size()), q.touched_vertices);
}

TEST_P(SetupTest, VertexMapIsConsistent) {
  ASSERT_EQ(pg_.vertex_map.size(), static_cast<std::size_t>(pg_.num_parts) + 1);
  EXPECT_EQ(pg_.vertex_map[0], 0);
  for (part_t p = 0; p < pg_.num_parts; ++p) {
    EXPECT_EQ(pg_.vertex_map[static_cast<std::size_t>(p) + 1] - pg_.vertex_map[static_cast<std::size_t>(p)],
              pg_.parts[static_cast<std::size_t>(p)].num_vertices);
  }
}

TEST_P(SetupTest, GlobalInDegreePreserved) {
  std::vector<eid_t> global_deg(static_cast<std::size_t>(el_.num_vertices), 0);
  for (const Edge& e : el_.edges) ++global_deg[static_cast<std::size_t>(e.dst)];
  for (const LocalPartition& lp : pg_.parts)
    for (vid_t v = 0; v < lp.num_vertices; ++v)
      EXPECT_EQ(lp.global_in_degree[static_cast<std::size_t>(v)],
                global_deg[static_cast<std::size_t>(lp.global_ids[static_cast<std::size_t>(v)])]);
}

INSTANTIATE_TEST_SUITE_P(PartCounts, SetupTest, ::testing::Values(part_t{2}, part_t{4}, part_t{8}));

// ---- halo plans ----

class HaloTest : public ::testing::TestWithParam<std::tuple<part_t, int /*bins*/>> {};

TEST_P(HaloTest, ChannelsAreSymmetricAndComplete) {
  const auto [parts, bins] = GetParam();
  const EdgeList el = test_graph(1024, 8192, 13);
  const PartitionedGraph pg = build_partitions(el, partition_libra(el, parts), 3);
  const auto plans = build_halo_plans(pg, bins);
  ASSERT_EQ(plans.size(), static_cast<std::size_t>(parts));

  std::int64_t total_leaf_entries = 0;
  for (part_t p = 0; p < parts; ++p) {
    for (int b = 0; b < bins; ++b) {
      for (part_t q = 0; q < parts; ++q) {
        const auto& mine = plans[static_cast<std::size_t>(p)].peer(b, q);
        const auto& theirs = plans[static_cast<std::size_t>(q)].peer(b, p);
        // My leaves pair with their roots, and my roots with their leaves.
        EXPECT_EQ(mine.leaf.size(), theirs.root.size());
        EXPECT_EQ(mine.root.size(), theirs.leaf.size());
        total_leaf_entries += static_cast<std::int64_t>(mine.leaf.size());
      }
    }
  }
  // Total leaf channel entries == total clones minus one root per tree.
  std::int64_t expected = 0;
  for (const LocalPartition& lp : pg.parts)
    for (vid_t v = 0; v < lp.num_vertices; ++v)
      if (lp.is_split[static_cast<std::size_t>(v)] && !lp.is_root[static_cast<std::size_t>(v)])
        ++expected;
  EXPECT_EQ(total_leaf_entries, expected);
}

TEST_P(HaloTest, EveryLeafAppearsInExactlyOneBin) {
  const auto [parts, bins] = GetParam();
  const EdgeList el = test_graph(1024, 8192, 17);
  const PartitionedGraph pg = build_partitions(el, partition_libra(el, parts), 3);
  const auto plans = build_halo_plans(pg, bins);
  for (part_t p = 0; p < parts; ++p) {
    std::set<vid_t> seen;
    for (int b = 0; b < bins; ++b) {
      for (part_t q = 0; q < parts; ++q) {
        for (const vid_t v : plans[static_cast<std::size_t>(p)].peer(b, q).leaf) {
          EXPECT_TRUE(seen.insert(v).second) << "leaf " << v << " appears twice";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, HaloTest,
                         ::testing::Combine(::testing::Values(part_t{2}, part_t{4}, part_t{8}),
                                            ::testing::Values(1, 3, 5)));

TEST(HaloPlan, LeafSendVolumeSumsBins) {
  const EdgeList el = test_graph(512, 4096, 19);
  const PartitionedGraph pg = build_partitions(el, partition_libra(el, 4), 3);
  const auto one_bin = build_halo_plans(pg, 1);
  const auto five_bins = build_halo_plans(pg, 5);
  for (part_t p = 0; p < 4; ++p) {
    const auto leaves = [&](const HaloPlan& plan, int b) {
      std::size_t n = 0;
      for (part_t q = 0; q < 4; ++q) n += plan.peer(b, q).leaf.size();
      return n;
    };
    std::size_t total = 0;
    for (int b = 0; b < 5; ++b) total += leaves(five_bins[static_cast<std::size_t>(p)], b);
    EXPECT_EQ(total, leaves(one_bin[static_cast<std::size_t>(p)], 0));
  }
}

}  // namespace
}  // namespace distgnn
