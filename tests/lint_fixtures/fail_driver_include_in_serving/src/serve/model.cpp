#include "nn/gemm.hpp"  // finding: gemm runs an omp parallel for per call
namespace distgnn::serve {
void forward() {}
}  // namespace distgnn::serve
