// Synthetic dataset registry mirroring Table 2 of the paper. Each named
// dataset ("reddit-sim", "ogbn-products-sim", "proteins-sim",
// "ogbn-papers-sim", "am-sim") is a scaled-down analogue whose density
// character matches the original; `scale` multiplies the vertex count so the
// same benchmark can be run larger or smaller. Learnable SBM datasets and
// the edge-typed dataset of the RGCN workload (Figure 2's AM) are built here
// too: a typed dataset is a Dataset whose edges carry relation labels.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "util/matrix.hpp"
#include "util/types.hpp"

namespace distgnn {

/// A fully materialized dataset: graph + vertex features + labels + the
/// train/validation/test split, ready for full-batch training.
struct Dataset {
  std::string name;
  Graph graph;
  DenseMatrix features;          // |V| x feature_dim
  std::vector<int> labels;       // |V|
  std::vector<std::uint8_t> train_mask, val_mask, test_mask;  // |V| each
  int num_classes = 0;
  /// Per-edge relation labels, indexed by edge id (empty for homogeneous
  /// datasets). RGCN training and serving read these — see
  /// make_hetero_dataset() and split_by_relation().
  std::vector<int> edge_types;
  int num_edge_types = 0;

  vid_t num_vertices() const { return graph.num_vertices(); }
  eid_t num_edges() const { return graph.num_edges(); }
  int feature_dim() const { return static_cast<int>(features.cols()); }
};

enum class GraphFamily {
  kRmat,       // skewed power-law quadrature (Reddit/Products character)
  kPowerLaw,   // Chung-Lu heavy tail (Papers character)
  kSbm,        // planted communities (Proteins character; learnable labels)
  kErdos,      // uniform control
};

/// Static description of a named dataset; see `dataset_registry()`.
struct DatasetSpec {
  std::string name;
  GraphFamily family = GraphFamily::kRmat;
  vid_t num_vertices = 1 << 14;   // at scale = 1
  double avg_degree = 16.0;       // directed edges per vertex after symmetrize
  int feature_dim = 64;
  int num_classes = 16;
  double rmat_skew = 0.57;        // RMAT `a` parameter (b = c = (1-a-d)/2)
  double power_law_exponent = 2.1;
  int sbm_blocks = 16;
  double sbm_in_out_ratio = 8.0;
  double train_fraction = 0.10, val_fraction = 0.05;
  std::uint64_t seed = 42;

  // Paper-reported statistics of the original dataset (Table 2), retained so
  // benches can print the paper-vs-sim comparison.
  vid_t paper_vertices = 0;
  eid_t paper_edges = 0;
  int paper_features = 0;
  int paper_classes = 0;
};

/// The five Table 2 datasets, in paper order.
const std::vector<DatasetSpec>& dataset_registry();

/// Looks up a spec by name; throws std::out_of_range for unknown names.
const DatasetSpec& dataset_spec(const std::string& name);

/// Materializes a dataset at `scale` (vertex count multiplied by `scale`,
/// edge count scaled to keep average degree constant). For the SBM family the
/// labels are the planted communities and features are class-informative
/// (centroid + Gaussian noise) so models can genuinely learn; for the other
/// families features/labels are random (the perf experiments never look at
/// accuracy).
Dataset make_dataset(const DatasetSpec& spec, double scale = 1.0);
Dataset make_dataset(const std::string& name, double scale = 1.0);

/// Direct construction of a learnable SBM dataset (used by accuracy tests
/// and Table 5): num_classes == num_blocks, noisy class-centroid features.
struct LearnableSbmParams {
  vid_t num_vertices = 4096;
  int num_classes = 8;
  double avg_degree = 16.0;
  double in_out_ratio = 8.0;
  int feature_dim = 32;
  float feature_noise = 1.0f;   // stddev of Gaussian noise around centroid
  double train_fraction = 0.30, val_fraction = 0.10;
  std::uint64_t seed = 11;
};
Dataset make_learnable_sbm(const LearnableSbmParams& params);

/// A labelled edge-typed dataset (AM character): planted communities give
/// learnable labels; each edge carries one of `num_edge_types` relations,
/// with intra-community edges biased toward low-numbered relations so the
/// relation signal is informative, as in real knowledge graphs.
struct HeteroSbmParams {
  vid_t num_vertices = 4096;
  int num_classes = 11;        // AM's class count
  int num_edge_types = 4;
  double avg_degree = 8.0;
  int feature_dim = 16;
  float feature_noise = 1.0f;
  double train_fraction = 0.3, val_fraction = 0.1;
  std::uint64_t seed = 19;
};
/// Throws std::invalid_argument if num_edge_types < 1. With one relation
/// every edge is relation 0.
Dataset make_hetero_dataset(const HeteroSbmParams& params);

/// Splits `edges` by relation: element r holds every edge whose type is r,
/// in edge-id order, over the same vertex set. Throws std::invalid_argument
/// unless `edge_types` has one entry per edge, and std::out_of_range for a
/// type outside [0, num_edge_types).
std::vector<EdgeList> split_by_relation(const EdgeList& edges, std::span<const int> edge_types,
                                        int num_edge_types);

}  // namespace distgnn
