// Fixture: full-graph drivers outside src/serve/ may start teams.
#include "nn/gemm.hpp"
namespace distgnn {
void scale_all(float* y, int n) {
#pragma omp parallel for schedule(static)
  for (int i = 0; i < n; ++i) y[i] *= 2;
}
}  // namespace distgnn
