// Synthetic graph generators. The paper's datasets are unavailable offline,
// so we generate graphs whose *density character* (power-law degrees for
// Reddit/OGBN, clustered structure for Proteins, SBM for accuracy studies)
// matches the phenomena each experiment depends on. The dataset registry
// (graph/datasets.cpp) maps each of the paper's datasets to one of them.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/coo.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace distgnn {

/// Recursive-matrix (R-MAT / Kronecker) generator: power-law degrees, the
/// standard stand-in for social-network graphs like Reddit. Probabilities
/// (a,b,c,d) must sum to 1; skew (a >> d) controls degree skew.
struct RmatParams {
  vid_t num_vertices = 1 << 14;  // rounded up to a power of two internally
  eid_t num_edges = 1 << 18;
  double a = 0.57, b = 0.19, c = 0.19;  // d = 1-a-b-c
  std::uint64_t seed = 1;
  bool symmetrize = true;   // add both edge directions, as the paper's datasets do
  bool dedup = false;       // keep multi-edges by default (matches RMAT practice)
};
EdgeList generate_rmat(const RmatParams& params);

/// Erdős–Rényi G(n, m): uniform random edges, the low-skew control case.
EdgeList generate_erdos_renyi(vid_t num_vertices, eid_t num_edges, std::uint64_t seed,
                              bool symmetrize = true);

/// Stochastic block model with `num_blocks` planted communities: vertices in
/// the same block connect with probability proportional to `p_in`, across
/// blocks with `p_out`. Produces the clusterable structure that (a) gives
/// Libra partitions a low replication factor (Proteins-like) and (b) gives
/// the accuracy experiments learnable signal when features are drawn per block.
struct SbmParams {
  vid_t num_vertices = 1 << 12;
  int num_blocks = 8;
  double avg_degree = 16.0;     // expected (directed) degree per vertex
  double in_out_ratio = 8.0;    // p_in / p_out
  std::uint64_t seed = 7;
  bool symmetrize = true;
};
struct SbmGraph {
  EdgeList edges;
  std::vector<int> block_of;  // community of each vertex, |V| entries
};
SbmGraph generate_sbm(const SbmParams& params);

/// Power-law degree sequence via a Chung-Lu style configuration model;
/// exponent ~2.1 mimics the heavy tail of web/citation graphs (OGBN-Papers).
EdgeList generate_power_law(vid_t num_vertices, double avg_degree, double exponent,
                            std::uint64_t seed, bool symmetrize = true);

}  // namespace distgnn
