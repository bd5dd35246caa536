#include "nn/optim.hpp"

namespace distgnn {

void Sgd::step(std::span<ParamRef> params) {
  if (momentum_ != 0.0 && velocity_.size() != params.size()) {
    velocity_.clear();
    for (const ParamRef& p : params) velocity_.emplace_back(p.size, real_t{0});
  }
  for (std::size_t k = 0; k < params.size(); ++k) {
    const ParamRef& p = params[k];
    for (std::size_t i = 0; i < p.size; ++i) {
      real_t g = p.grad[i] + static_cast<real_t>(weight_decay_) * p.value[i];
      if (momentum_ != 0.0) {
        real_t& vel = velocity_[k][i];
        vel = static_cast<real_t>(momentum_) * vel + g;
        g = vel;
      }
      p.value[i] -= static_cast<real_t>(lr_) * g;
    }
  }
}

}  // namespace distgnn
