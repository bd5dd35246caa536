#include "graph/stats.hpp"

#include <algorithm>
#include <cmath>

namespace distgnn {

DegreeStats in_degree_stats(const Graph& g) {
  DegreeStats s;
  const vid_t n = g.num_vertices();
  if (n == 0) return s;
  const CsrMatrix& csr = g.in_csr();

  std::vector<eid_t> degrees(static_cast<std::size_t>(n));
  for (vid_t v = 0; v < n; ++v) degrees[static_cast<std::size_t>(v)] = csr.degree(v);

  s.min = *std::min_element(degrees.begin(), degrees.end());
  s.max = *std::max_element(degrees.begin(), degrees.end());
  double sum = 0.0, sq = 0.0;
  for (const eid_t d : degrees) {
    sum += static_cast<double>(d);
    sq += static_cast<double>(d) * static_cast<double>(d);
  }
  s.mean = sum / static_cast<double>(n);
  s.stddev = std::sqrt(std::max(0.0, sq / static_cast<double>(n) - s.mean * s.mean));

  // Gini via the sorted-rank formula.
  std::sort(degrees.begin(), degrees.end());
  double weighted = 0.0;
  for (std::size_t i = 0; i < degrees.size(); ++i)
    weighted += static_cast<double>(2 * (i + 1)) * static_cast<double>(degrees[i]);
  if (sum > 0)
    s.gini = weighted / (static_cast<double>(n) * sum) -
             (static_cast<double>(n) + 1.0) / static_cast<double>(n);
  return s;
}

}  // namespace distgnn
