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

TEST(Libra, RejectsBadPartitionCounts) {
  const EdgeList el = test_graph(64, 128);
  EXPECT_THROW(partition_libra(el, 0), std::invalid_argument);
  EXPECT_THROW(partition_libra(el, 300), std::invalid_argument);
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
