// The optimizer step over flat parameter references. The trainer collects
// ParamRefs from every layer; the same list is what gets AllReduced in the
// distributed data-parallel step.
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"

namespace distgnn {

struct ParamRef {
  real_t* value = nullptr;
  real_t* grad = nullptr;
  std::size_t size = 0;
};

/// SGD with optional momentum and decoupled L2 weight decay (the paper trains
/// with wd = 5e-4).
class Sgd {
 public:
  explicit Sgd(double lr, double momentum = 0.0, double weight_decay = 0.0)
      : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {}

  void step(std::span<ParamRef> params);

 private:
  double lr_, momentum_, weight_decay_;
  std::vector<std::vector<real_t>> velocity_;
};

}  // namespace distgnn
