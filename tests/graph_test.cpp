#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>

#include "graph/csr.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/stats.hpp"

namespace distgnn {
namespace {

EdgeList small_graph() {
  // 0->1, 0->2, 1->2, 3->2, 2->0
  EdgeList el;
  el.num_vertices = 4;
  el.add(0, 1);
  el.add(0, 2);
  el.add(1, 2);
  el.add(3, 2);
  el.add(2, 0);
  return el;
}

TEST(Csr, InAdjacencyRowsAreDestinations) {
  const CsrMatrix csr = CsrMatrix::from_coo(small_graph());
  EXPECT_EQ(csr.num_rows(), 4);
  EXPECT_EQ(csr.num_entries(), 5);
  // In-neighbours of vertex 2 are {0, 1, 3}.
  const auto nbrs = csr.neighbors(2);
  std::multiset<vid_t> got(nbrs.begin(), nbrs.end());
  EXPECT_EQ(got, (std::multiset<vid_t>{0, 1, 3}));
  EXPECT_EQ(csr.degree(2), 3);
  EXPECT_EQ(csr.degree(3), 0);
}

TEST(Csr, EdgeIdsPointBackToCoo) {
  const EdgeList el = small_graph();
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  for (vid_t v = 0; v < csr.num_rows(); ++v) {
    const auto nbrs = csr.neighbors(v);
    const auto eids = csr.edge_ids(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const Edge& e = el.edges[static_cast<std::size_t>(eids[i])];
      EXPECT_EQ(e.dst, v);
      EXPECT_EQ(e.src, nbrs[i]);
    }
  }
}

TEST(Csr, TransposeMatchesOutAdjacency) {
  // transpose_from_coo: row u lists u's out-neighbours in edge-list order,
  // and each entry's edge id points back at the COO edge u -> v.
  const EdgeList el = small_graph();
  const CsrMatrix out = CsrMatrix::transpose_from_coo(el);
  ASSERT_EQ(out.num_rows(), el.num_vertices);
  ASSERT_EQ(out.num_entries(), static_cast<eid_t>(el.edges.size()));
  for (vid_t u = 0; u < out.num_rows(); ++u) {
    std::vector<vid_t> expected_nbrs;
    std::vector<eid_t> expected_ids;
    for (std::size_t e = 0; e < el.edges.size(); ++e)
      if (el.edges[e].src == u) {
        expected_nbrs.push_back(el.edges[e].dst);
        expected_ids.push_back(static_cast<eid_t>(e));
      }
    const auto nbrs = out.neighbors(u);
    const auto eids = out.edge_ids(u);
    EXPECT_EQ(std::vector<vid_t>(nbrs.begin(), nbrs.end()), expected_nbrs) << "row " << u;
    EXPECT_EQ(std::vector<eid_t>(eids.begin(), eids.end()), expected_ids) << "row " << u;
  }
}

TEST(Csr, RejectsOutOfRangeEndpoints) {
  EdgeList el;
  el.num_vertices = 2;
  el.add(0, 5);
  EXPECT_THROW(CsrMatrix::from_coo(el), std::out_of_range);
}

// from_raw validates the arrays (Release builds compile asserts out), and
// column_blocks range-checks every column, so a malformed or rectangular
// matrix is a typed error rather than a write past a block's row pointers.
TEST(Csr, FromRawRejectsEmptyRowPtr) {
  EXPECT_THROW(CsrMatrix::from_raw({}, {}, {}), std::invalid_argument);
}

TEST(Csr, FromRawRejectsNonMonotoneRowPtr) {
  EXPECT_THROW(CsrMatrix::from_raw({0, 2, 1, 2}, {0, 1}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix::from_raw({1, 1, 2}, {0, 1}, {0, 1}), std::invalid_argument);
}

TEST(Csr, FromRawRejectsRowPtrNotEndingAtEntryCount) {
  EXPECT_THROW(CsrMatrix::from_raw({0, 1, 1}, {0, 1}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix::from_raw({0, 1, 3}, {0, 1}, {0, 1}), std::invalid_argument);
}

TEST(Csr, FromRawRejectsMismatchedEntryArrays) {
  EXPECT_THROW(CsrMatrix::from_raw({0, 1, 2}, {0, 1}, {0}), std::invalid_argument);
}

TEST(Csr, FromRawAcceptsAWellFormedMatrix) {
  const CsrMatrix m = CsrMatrix::from_raw({0, 1, 1, 3}, {2, 0, 1}, {7, 8, 9});
  EXPECT_EQ(m.num_rows(), 3);
  EXPECT_EQ(m.num_entries(), 3);
  EXPECT_EQ(m.degree(1), 0);
}

TEST(Csr, ColumnBlocksRejectsColumnsOutsideTheRowRange) {
  // Two rows, a column 5: rectangular, so block sizes from num_rows() do not
  // cover it.
  const CsrMatrix wide = CsrMatrix::from_raw({0, 1, 2}, {0, 5}, {0, 1});
  EXPECT_THROW(wide.column_blocks(2), std::out_of_range);
  const CsrMatrix negative = CsrMatrix::from_raw({0, 1, 1}, {-1}, {0});
  EXPECT_THROW(negative.column_blocks(1), std::out_of_range);
  EXPECT_THROW(CsrMatrix::from_raw({0, 0}, {}, {}).column_blocks(0), std::invalid_argument);
}

TEST(Csr, SelectRowsKeepsEachRowsEntriesInOrder) {
  const EdgeList el = generate_rmat({.num_vertices = 64, .num_edges = 512, .seed = 9});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  const std::vector<vid_t> rows{3, 10, 11, 63};
  const CsrMatrix sel = csr.select_rows(rows);
  ASSERT_EQ(sel.num_rows(), 4);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto got = sel.neighbors(static_cast<vid_t>(i));
    const auto want = csr.neighbors(rows[i]);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end())) << "row " << i;
    const auto got_ids = sel.edge_ids(static_cast<vid_t>(i));
    const auto want_ids = csr.edge_ids(rows[i]);
    EXPECT_TRUE(std::equal(got_ids.begin(), got_ids.end(), want_ids.begin(), want_ids.end()));
  }
  EXPECT_THROW(csr.select_rows(std::vector<vid_t>{64}), std::out_of_range);
}

TEST(Csr, SelectColumnsKeepsMappedEntriesRenumbered) {
  const EdgeList el = generate_rmat({.num_vertices = 64, .num_edges = 512, .seed = 9});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  std::vector<vid_t> column_map(64, -1);
  column_map[5] = 0;
  column_map[17] = 1;
  column_map[40] = 2;
  const CsrMatrix sel = csr.select_columns(column_map);
  ASSERT_EQ(sel.num_rows(), csr.num_rows());
  for (vid_t v = 0; v < csr.num_rows(); ++v) {
    std::vector<vid_t> want;
    for (const vid_t u : csr.neighbors(v))
      if (column_map[static_cast<std::size_t>(u)] >= 0)
        want.push_back(column_map[static_cast<std::size_t>(u)]);
    const auto got = sel.neighbors(v);
    EXPECT_EQ(std::vector<vid_t>(got.begin(), got.end()), want) << "row " << v;
  }
  EXPECT_THROW(csr.select_columns(std::vector<vid_t>(10, 0)), std::out_of_range);
}

class CsrBlockTest : public ::testing::TestWithParam<int> {};

TEST_P(CsrBlockTest, ColumnBlocksPartitionEntries) {
  const int num_blocks = GetParam();
  const EdgeList el = generate_rmat({.num_vertices = 256, .num_edges = 2048, .seed = 5});
  const CsrMatrix csr = CsrMatrix::from_coo(el);
  const auto blocks = csr.column_blocks(num_blocks);
  ASSERT_EQ(static_cast<int>(blocks.size()), num_blocks);

  const vid_t block_size = (csr.num_rows() + num_blocks - 1) / num_blocks;
  eid_t total = 0;
  std::map<vid_t, std::multiset<vid_t>> merged;
  for (int b = 0; b < num_blocks; ++b) {
    total += blocks[b].num_entries();
    for (vid_t v = 0; v < blocks[b].num_rows(); ++v) {
      for (const vid_t u : blocks[b].neighbors(v)) {
        EXPECT_EQ(u / block_size, b) << "entry in wrong block";
        merged[v].insert(u);
      }
    }
  }
  EXPECT_EQ(total, csr.num_entries());
  for (vid_t v = 0; v < csr.num_rows(); ++v) {
    const auto nbrs = csr.neighbors(v);
    EXPECT_EQ(merged[v], std::multiset<vid_t>(nbrs.begin(), nbrs.end())) << "row " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(BlockCounts, CsrBlockTest, ::testing::Values(1, 2, 3, 4, 8, 16, 64));

TEST(EdgeList, SymmetrizeDoublesEdges) {
  EdgeList el = small_graph();
  const std::size_t before = el.edges.size();
  el.symmetrize();
  EXPECT_EQ(el.edges.size(), 2 * before);
  EXPECT_EQ(el.edges[before].src, el.edges[0].dst);
  EXPECT_EQ(el.edges[before].dst, el.edges[0].src);
}

TEST(Generators, RmatRespectsBounds) {
  const RmatParams p{.num_vertices = 300, .num_edges = 5000, .seed = 3};
  const EdgeList el = generate_rmat(p);
  EXPECT_EQ(el.edges.size(), 10000u);  // symmetrized
  for (const Edge& e : el.edges) {
    EXPECT_GE(e.src, 0);
    EXPECT_LT(e.src, 300);
    EXPECT_GE(e.dst, 0);
    EXPECT_LT(e.dst, 300);
    EXPECT_NE(e.src, e.dst);
  }
}

TEST(Generators, RmatDeterministicPerSeed) {
  const RmatParams p{.num_vertices = 128, .num_edges = 500, .seed = 9};
  const EdgeList a = generate_rmat(p);
  const EdgeList b = generate_rmat(p);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(Generators, RmatIsMoreSkewedThanErdos) {
  const Graph rmat(generate_rmat({.num_vertices = 4096, .num_edges = 32768, .a = 0.6, .seed = 1}));
  const Graph er(generate_erdos_renyi(4096, 32768, 1));
  EXPECT_GT(in_degree_stats(rmat).gini, in_degree_stats(er).gini + 0.1);
}

TEST(Generators, PowerLawHeavyTail) {
  const Graph g(generate_power_law(4096, 16.0, 2.1, 7));
  const DegreeStats s = in_degree_stats(g);
  EXPECT_GT(s.max, 20 * static_cast<eid_t>(s.mean));  // hubs exist
  EXPECT_NEAR(s.mean, 16.0, 2.0);
}

TEST(Generators, SbmIsAssortative) {
  SbmParams p;
  p.num_vertices = 2048;
  p.num_blocks = 8;
  p.avg_degree = 20;
  p.in_out_ratio = 8.0;
  const SbmGraph g = generate_sbm(p);
  eid_t intra = 0;
  for (const Edge& e : g.edges.edges)
    if (g.block_of[static_cast<std::size_t>(e.src)] == g.block_of[static_cast<std::size_t>(e.dst)])
      ++intra;
  const double frac = static_cast<double>(intra) / static_cast<double>(g.edges.edges.size());
  // With ratio 8 over 8 blocks, p_intra = 8/(8+7) ~ 0.53 plus random intra hits.
  EXPECT_GT(frac, 0.45);
}

TEST(Datasets, RegistryHasTableTwoEntries) {
  const auto& reg = dataset_registry();
  ASSERT_EQ(reg.size(), 5u);
  EXPECT_NO_THROW(dataset_spec("reddit-sim"));
  EXPECT_NO_THROW(dataset_spec("ogbn-products-sim"));
  EXPECT_NO_THROW(dataset_spec("proteins-sim"));
  EXPECT_NO_THROW(dataset_spec("ogbn-papers-sim"));
  EXPECT_NO_THROW(dataset_spec("am-sim"));
  EXPECT_THROW(dataset_spec("nope"), std::out_of_range);
  // Paper-side statistics preserved for reporting.
  EXPECT_EQ(dataset_spec("ogbn-papers-sim").paper_vertices, 111'059'956);
}

TEST(Datasets, MakeDatasetShapesConsistent) {
  const Dataset ds = make_dataset("am-sim", 0.25);
  EXPECT_GT(ds.num_vertices(), 0);
  EXPECT_EQ(ds.features.rows(), static_cast<std::size_t>(ds.num_vertices()));
  EXPECT_EQ(ds.labels.size(), static_cast<std::size_t>(ds.num_vertices()));
  EXPECT_EQ(ds.train_mask.size(), ds.labels.size());
  for (const int label : ds.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, ds.num_classes);
  }
  // Masks partition the vertex set.
  for (std::size_t v = 0; v < ds.labels.size(); ++v)
    EXPECT_EQ(ds.train_mask[v] + ds.val_mask[v] + ds.test_mask[v], 1);
}

TEST(Datasets, ScaleChangesSize) {
  const Dataset small = make_dataset("am-sim", 0.1);
  const Dataset large = make_dataset("am-sim", 0.5);
  EXPECT_LT(small.num_vertices(), large.num_vertices());
  EXPECT_NEAR(small.graph.avg_degree(), large.graph.avg_degree(), 2.0);
}

TEST(Datasets, LearnableSbmFeaturesCorrelateWithLabels) {
  LearnableSbmParams p;
  p.num_vertices = 512;
  p.num_classes = 4;
  p.feature_dim = 16;
  p.feature_noise = 0.5f;
  const Dataset ds = make_learnable_sbm(p);
  // Per-class feature means should be farther apart than the noise.
  DenseMatrix mean(4, 16, 0);
  std::vector<int> count(4, 0);
  for (std::size_t v = 0; v < 512; ++v) {
    const int c = ds.labels[v];
    ++count[static_cast<std::size_t>(c)];
    for (int j = 0; j < 16; ++j)
      mean.at(static_cast<std::size_t>(c), static_cast<std::size_t>(j)) += ds.features.at(v, static_cast<std::size_t>(j));
  }
  for (int c = 0; c < 4; ++c)
    for (int j = 0; j < 16; ++j)
      mean.at(static_cast<std::size_t>(c), static_cast<std::size_t>(j)) /= static_cast<real_t>(count[static_cast<std::size_t>(c)]);
  double min_dist = 1e30;
  for (int a = 0; a < 4; ++a)
    for (int b = a + 1; b < 4; ++b) {
      double d2 = 0;
      for (int j = 0; j < 16; ++j) {
        const double d = mean.at(static_cast<std::size_t>(a), static_cast<std::size_t>(j)) -
                         mean.at(static_cast<std::size_t>(b), static_cast<std::size_t>(j));
        d2 += d * d;
      }
      min_dist = std::min(min_dist, d2);
    }
  EXPECT_GT(min_dist, 1.0);
}

/// FNV-1a over the bytes of every field a dataset generator fills: the
/// shape, the COO, edge types, labels, feature bits and the three masks.
std::uint64_t dataset_hash(const Dataset& ds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto bytes = [&](const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  };
  const auto all = [&](const auto& v) { bytes(v.data(), v.size() * sizeof(v[0])); };
  const std::int64_t shape[] = {ds.num_vertices(), ds.num_classes, ds.num_edge_types,
                                ds.feature_dim()};
  bytes(shape, sizeof shape);
  all(ds.graph.coo().edges);
  all(ds.edge_types);
  all(ds.labels);
  bytes(ds.features.data(), ds.features.size() * sizeof(real_t));
  all(ds.train_mask);
  all(ds.val_mask);
  all(ds.test_mask);
  return h;
}

// Pins every generated bit of the SBM-family datasets (which share the
// noisy-centroid feature draw) and of an RMAT one, so a refactor of the
// generators cannot move a dataset unnoticed.
TEST(Datasets, GeneratedDataIsPinned) {
  LearnableSbmParams sbm;
  sbm.num_vertices = 512;
  sbm.num_classes = 4;
  sbm.avg_degree = 8;
  sbm.feature_dim = 8;
  sbm.feature_noise = 0.5f;
  EXPECT_EQ(dataset_hash(make_learnable_sbm(sbm)), 0x0505601fe4fa3ff3ULL);

  const std::pair<int, std::uint64_t> hetero[] = {
      {2, 0x546a58029aa33910ULL}, {3, 0x65b2e80a959a260aULL}, {4, 0xaee6085d596247beULL}};
  for (const auto& [relations, expected] : hetero) {
    HeteroSbmParams p;
    p.num_vertices = 512;
    p.num_edge_types = relations;
    p.feature_noise = 0.8f;
    EXPECT_EQ(dataset_hash(make_hetero_dataset(p)), expected) << relations << " relations";
  }

  EXPECT_EQ(dataset_hash(make_dataset("proteins-sim", 1.0 / 64)), 0x7f9c0adf43f87742ULL);
  EXPECT_EQ(dataset_hash(make_dataset("am-sim", 1.0 / 16)), 0xe977d6d5d06a0387ULL);
}

TEST(Stats, MeanDegreeMatchesGraph) {
  const Graph g(generate_erdos_renyi(1000, 8000, 2));
  EXPECT_NEAR(in_degree_stats(g).mean, g.avg_degree(), 1e-9);
}

}  // namespace
}  // namespace distgnn
