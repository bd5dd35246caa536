// Degree and density statistics used in the dataset tables and to validate
// that generated graphs have the intended character (skew, density).
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace distgnn {

struct DegreeStats {
  eid_t min = 0;
  eid_t max = 0;
  double mean = 0.0;
  double stddev = 0.0;
  /// Gini coefficient of the degree distribution: 0 = perfectly uniform,
  /// -> 1 = extreme skew. Power-law graphs land well above Erdős–Rényi.
  double gini = 0.0;
};

DegreeStats in_degree_stats(const Graph& g);

}  // namespace distgnn
