#include "core/sage_model.hpp"

#include <stdexcept>

namespace distgnn {

std::string to_string(Algorithm a) {
  switch (a) {
    case Algorithm::k0c: return "0c";
    case Algorithm::kCd0: return "cd-0";
    case Algorithm::kCdR: return "cd-r";
  }
  return "?";
}

SageModel::SageModel(int feature_dim, int hidden_dim, int num_classes, int num_layers,
                     std::uint64_t seed) {
  if (num_layers < 1) throw std::invalid_argument("SageModel: num_layers must be >= 1");
  Rng rng(seed);
  for (int l = 0; l < num_layers; ++l) {
    const std::size_t in = (l == 0) ? static_cast<std::size_t>(feature_dim)
                                    : static_cast<std::size_t>(hidden_dim);
    const std::size_t out = (l == num_layers - 1) ? static_cast<std::size_t>(num_classes)
                                                  : static_cast<std::size_t>(hidden_dim);
    layers_.emplace_back(in, out, /*apply_relu=*/l != num_layers - 1, rng);
  }
}

std::vector<ParamRef> SageModel::params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_) layer.collect_params(out);
  return out;
}

void SageModel::zero_grad() {
  for (auto& layer : layers_) layer.zero_grad();
}

}  // namespace distgnn
