// Fixture: a serving layer that loops serially over team-free row functions.
// Mentioning `#pragma omp parallel` or "nn/gemm.hpp" in comments and strings
// must not trip the rule.
#include "nn/layer_rows.hpp"
namespace distgnn::serve {
const char* kNote = "#include \"nn/gemm.hpp\" starts a team";
void scale_rows(float* y, const float* x, int n) {
#pragma omp simd
  for (int j = 0; j < n; ++j) y[j] = 2 * x[j];
}
}  // namespace distgnn::serve
