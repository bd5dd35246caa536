#include "graph/datasets.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace distgnn {

namespace {

void assign_split(Dataset& ds, double train_fraction, double val_fraction, Rng& rng) {
  const auto n = static_cast<std::size_t>(ds.num_vertices());
  ds.train_mask.assign(n, 0);
  ds.val_mask.assign(n, 0);
  ds.test_mask.assign(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const double r = rng.next_double();
    if (r < train_fraction) ds.train_mask[v] = 1;
    else if (r < train_fraction + val_fraction) ds.val_mask[v] = 1;
    else ds.test_mask[v] = 1;
  }
}

// Class-informative features: one centroid per class, entries
// `spread`·N(0,1), then each vertex's row is its label's centroid plus
// `noise`·N(0,1) per column. Every SBM dataset draws its features this way.
void centroid_features(Dataset& ds, int feature_dim, float spread, float noise, Rng& rng) {
  const auto n = static_cast<std::size_t>(ds.num_vertices());
  const auto dim = static_cast<std::size_t>(feature_dim);
  DenseMatrix centroids(static_cast<std::size_t>(ds.num_classes), dim);
  for (std::size_t i = 0; i < centroids.size(); ++i) centroids.data()[i] = spread * rng.normal();
  ds.features.resize_discard(n, dim);
  for (std::size_t v = 0; v < n; ++v)
    for (std::size_t j = 0; j < dim; ++j)
      ds.features.at(v, j) =
          centroids.at(static_cast<std::size_t>(ds.labels[v]), j) + noise * rng.normal();
}

void random_features_labels(Dataset& ds, int feature_dim, int num_classes, Rng& rng) {
  const auto n = static_cast<std::size_t>(ds.num_vertices());
  ds.features.resize_discard(n, static_cast<std::size_t>(feature_dim));
  for (std::size_t i = 0; i < ds.features.size(); ++i)
    ds.features.data()[i] = rng.uniform(-1.0f, 1.0f);
  ds.labels.resize(n);
  for (auto& l : ds.labels) l = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_classes)));
  ds.num_classes = num_classes;
}

}  // namespace

const std::vector<DatasetSpec>& dataset_registry() {
  static const std::vector<DatasetSpec> registry = [] {
    std::vector<DatasetSpec> specs;

    // AM: small heterogeneous museum graph; modest degree, trivial features.
    DatasetSpec am;
    am.name = "am-sim";
    am.family = GraphFamily::kRmat;
    am.num_vertices = 1 << 13;
    am.avg_degree = 6.4;
    am.feature_dim = 16;   // paper uses the vertex id (1 value); we widen so
                           // the MLP has something to chew on
    am.num_classes = 11;
    am.rmat_skew = 0.45;
    am.seed = 101;
    am.paper_vertices = 881'680;
    am.paper_edges = 5'668'682;
    am.paper_features = 1;
    am.paper_classes = 11;
    specs.push_back(am);

    // Reddit: the dense outlier (avg degree 492, density 2e-3). We keep the
    // degree high relative to the other sims so the cache-reuse and
    // replication-factor contrasts of Tables 3/4 survive the downscale.
    DatasetSpec reddit;
    reddit.name = "reddit-sim";
    reddit.family = GraphFamily::kRmat;
    reddit.num_vertices = 1 << 15;
    reddit.avg_degree = 128.0;
    reddit.feature_dim = 256;  // paper: 602
    reddit.num_classes = 41;
    reddit.rmat_skew = 0.57;
    reddit.seed = 102;
    reddit.paper_vertices = 232'965;
    reddit.paper_edges = 114'615'892;
    reddit.paper_features = 602;
    reddit.paper_classes = 41;
    specs.push_back(reddit);

    // OGBN-Products: much sparser (avg degree 50.5, density 2e-5).
    DatasetSpec products;
    products.name = "ogbn-products-sim";
    products.family = GraphFamily::kRmat;
    products.num_vertices = 1 << 17;
    products.avg_degree = 24.0;
    products.feature_dim = 100;
    products.num_classes = 47;
    products.rmat_skew = 0.5;
    products.seed = 103;
    products.paper_vertices = 2'449'029;
    products.paper_edges = 123'718'280;
    products.paper_features = 100;
    products.paper_classes = 47;
    specs.push_back(products);

    // Proteins: strongly clustered (protein families) -> SBM, which is what
    // gives it the paper's unusually low replication factor under Libra.
    DatasetSpec proteins;
    proteins.name = "proteins-sim";
    proteins.family = GraphFamily::kSbm;
    proteins.num_vertices = 1 << 16;
    proteins.avg_degree = 48.0;
    proteins.feature_dim = 128;
    proteins.num_classes = 32;  // paper: 256; scaled with the vertex count
    proteins.sbm_blocks = 64;
    // Strong homophily: ~80% of edges stay inside a protein family
    // (p_intra = ratio / (ratio + blocks - 1) ~ 0.83), which is what gives
    // Proteins its unusually low Table 4 replication factor.
    proteins.sbm_in_out_ratio = 300.0;
    proteins.seed = 104;
    proteins.paper_vertices = 8'745'542;
    proteins.paper_edges = 1'309'240'502;
    proteins.paper_features = 128;
    proteins.paper_classes = 256;
    specs.push_back(proteins);

    // OGBN-Papers: the heavy-tailed citation graph, lowest average degree.
    DatasetSpec papers;
    papers.name = "ogbn-papers-sim";
    papers.family = GraphFamily::kPowerLaw;
    papers.num_vertices = 1 << 17;
    papers.avg_degree = 14.0;
    papers.feature_dim = 128;
    papers.num_classes = 32;  // paper: 172
    papers.power_law_exponent = 2.1;
    papers.seed = 105;
    papers.paper_vertices = 111'059'956;
    papers.paper_edges = 1'615'685'872;
    papers.paper_features = 128;
    papers.paper_classes = 172;
    specs.push_back(papers);

    return specs;
  }();
  return registry;
}

const DatasetSpec& dataset_spec(const std::string& name) {
  for (const auto& spec : dataset_registry())
    if (spec.name == name) return spec;
  throw std::out_of_range("dataset_spec: unknown dataset '" + name + "'");
}

Dataset make_dataset(const DatasetSpec& spec, double scale) {
  if (scale <= 0) throw std::invalid_argument("make_dataset: scale must be > 0");
  const auto n = static_cast<vid_t>(std::max(64.0, std::round(static_cast<double>(spec.num_vertices) * scale)));
  const auto undirected_edges = static_cast<eid_t>(spec.avg_degree * static_cast<double>(n) / 2.0);

  Dataset ds;
  ds.name = spec.name;
  Rng rng(spec.seed * 7919 + 13);

  switch (spec.family) {
    case GraphFamily::kRmat: {
      RmatParams p;
      p.num_vertices = n;
      p.num_edges = undirected_edges;
      p.a = spec.rmat_skew;
      p.b = p.c = (1.0 - spec.rmat_skew - 0.05) / 2.0;
      p.seed = spec.seed;
      ds.graph = Graph(generate_rmat(p));
      random_features_labels(ds, spec.feature_dim, spec.num_classes, rng);
      break;
    }
    case GraphFamily::kPowerLaw: {
      ds.graph = Graph(generate_power_law(n, spec.avg_degree, spec.power_law_exponent, spec.seed));
      random_features_labels(ds, spec.feature_dim, spec.num_classes, rng);
      break;
    }
    case GraphFamily::kErdos: {
      ds.graph = Graph(generate_erdos_renyi(n, undirected_edges, spec.seed));
      random_features_labels(ds, spec.feature_dim, spec.num_classes, rng);
      break;
    }
    case GraphFamily::kSbm: {
      SbmParams p;
      p.num_vertices = n;
      p.num_blocks = spec.sbm_blocks;
      p.avg_degree = spec.avg_degree;
      p.in_out_ratio = spec.sbm_in_out_ratio;
      p.seed = spec.seed;
      SbmGraph sbm = generate_sbm(p);
      ds.graph = Graph(std::move(sbm.edges));
      // Labels follow the planted blocks (folded onto num_classes); features
      // are noisy class centroids so the labels are genuinely learnable.
      ds.num_classes = spec.num_classes;
      ds.labels.resize(static_cast<std::size_t>(n));
      for (vid_t v = 0; v < n; ++v)
        ds.labels[static_cast<std::size_t>(v)] =
            sbm.block_of[static_cast<std::size_t>(v)] % spec.num_classes;
      centroid_features(ds, spec.feature_dim, /*spread=*/1.0f, /*noise=*/1.0f, rng);
      break;
    }
  }

  assign_split(ds, spec.train_fraction, spec.val_fraction, rng);
  return ds;
}

Dataset make_dataset(const std::string& name, double scale) {
  return make_dataset(dataset_spec(name), scale);
}

Dataset make_learnable_sbm(const LearnableSbmParams& params) {
  SbmParams p;
  p.num_vertices = params.num_vertices;
  p.num_blocks = params.num_classes;
  p.avg_degree = params.avg_degree;
  p.in_out_ratio = params.in_out_ratio;
  p.seed = params.seed;
  SbmGraph sbm = generate_sbm(p);

  Dataset ds;
  ds.name = "learnable-sbm";
  ds.graph = Graph(std::move(sbm.edges));
  ds.num_classes = params.num_classes;
  const auto n = static_cast<std::size_t>(params.num_vertices);
  ds.labels.resize(n);
  for (std::size_t v = 0; v < n; ++v) ds.labels[v] = sbm.block_of[v];

  Rng rng(params.seed ^ 0xabcdef);
  centroid_features(ds, params.feature_dim, /*spread=*/2.0f, params.feature_noise, rng);
  assign_split(ds, params.train_fraction, params.val_fraction, rng);
  return ds;
}

Dataset make_hetero_dataset(const HeteroSbmParams& params) {
  const int relations = params.num_edge_types;
  if (relations < 1) throw std::invalid_argument("make_hetero_dataset: num_edge_types must be >= 1");
  SbmParams sp;
  sp.num_vertices = params.num_vertices;
  sp.num_blocks = params.num_classes;
  sp.avg_degree = params.avg_degree;
  sp.in_out_ratio = 8.0;
  sp.seed = params.seed;
  SbmGraph sbm = generate_sbm(sp);

  Rng rng(params.seed ^ 0xfeed);
  // Relation assignment: intra-community edges draw from the low relations
  // [0, low), cross-community edges from the high ones [low, relations), so
  // relations are genuinely informative about structure. One relation makes
  // the draws of two, and the clamp gives every edge relation 0.
  const int low = std::max(1, relations / 2);
  const int high = std::max(1, relations - low);
  Dataset ds;
  ds.name = "hetero";
  ds.edge_types.resize(sbm.edges.edges.size());
  ds.num_edge_types = relations;
  for (std::size_t i = 0; i < sbm.edges.edges.size(); ++i) {
    const Edge& e = sbm.edges.edges[i];
    const bool intra = sbm.block_of[static_cast<std::size_t>(e.src)] ==
                       sbm.block_of[static_cast<std::size_t>(e.dst)];
    const int type = intra ? static_cast<int>(rng.next_below(static_cast<std::uint64_t>(low)))
                           : low + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(high)));
    ds.edge_types[i] = std::min(type, relations - 1);
  }

  ds.num_classes = params.num_classes;
  const auto n = static_cast<std::size_t>(params.num_vertices);
  ds.labels.resize(n);
  for (std::size_t v = 0; v < n; ++v) ds.labels[v] = sbm.block_of[v];
  ds.graph = Graph(std::move(sbm.edges));
  centroid_features(ds, params.feature_dim, /*spread=*/2.0f, params.feature_noise, rng);
  assign_split(ds, params.train_fraction, params.val_fraction, rng);
  return ds;
}

std::vector<EdgeList> split_by_relation(const EdgeList& edges, std::span<const int> edge_types,
                                        int num_edge_types) {
  if (edge_types.size() != edges.edges.size())
    throw std::invalid_argument("split_by_relation: one edge type per edge expected");
  std::vector<EdgeList> relations(static_cast<std::size_t>(std::max(0, num_edge_types)));
  for (EdgeList& r : relations) r.num_vertices = edges.num_vertices;
  for (std::size_t i = 0; i < edge_types.size(); ++i) {
    const int t = edge_types[i];
    if (t < 0 || t >= num_edge_types)
      throw std::out_of_range("split_by_relation: edge type outside [0, num_edge_types)");
    relations[static_cast<std::size_t>(t)].edges.push_back(edges.edges[i]);
  }
  return relations;
}

}  // namespace distgnn
