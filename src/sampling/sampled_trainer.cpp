#include "sampling/sampled_trainer.hpp"

#include <chrono>
#include <numeric>

#include "kernels/aggregate.hpp"
#include "nn/layer_rows.hpp"

namespace distgnn {

SampledSageTrainer::SampledSageTrainer(const Dataset& dataset, SampledTrainConfig config)
    : dataset_(dataset),
      config_(std::move(config)),
      model_(dataset.feature_dim(), config_.hidden_dim, dataset.num_classes,
             static_cast<int>(config_.fanouts.size()), config_.seed),
      rng_(config_.seed),
      optimizer_(config_.lr, /*momentum=*/0.0, config_.weight_decay) {
  const auto num_layers = static_cast<std::size_t>(model_.num_layers());
  acts_.resize(num_layers + 1);
  aggs_.resize(num_layers);
  inv_norms_.resize(num_layers);

  for (vid_t v = 0; v < dataset.num_vertices(); ++v)
    if (dataset.train_mask[static_cast<std::size_t>(v)]) train_vertices_.push_back(v);
}

void SampledSageTrainer::forward_batch(const MiniBatch& mb, bool training) {
  // Gather input features for the deepest layer's vertex set.
  const std::size_t f = static_cast<std::size_t>(dataset_.feature_dim());
  acts_[0].resize_discard(mb.input_vertices.size(), f);
  for (std::size_t i = 0; i < mb.input_vertices.size(); ++i) {
    const real_t* src = dataset_.features.row(static_cast<std::size_t>(mb.input_vertices[i]));
    std::copy(src, src + f, acts_[0].row(i));
  }

  for (std::size_t l = 0; l < aggs_.size(); ++l) {
    const SampledBlock& block = mb.blocks[l];
    GraphSageLayer& layer = model_.layer(static_cast<int>(l));
    const std::size_t d = acts_[l].cols();
    const auto n_dst = static_cast<std::size_t>(block.num_dst);

    DenseMatrix& agg = aggs_[l];
    agg.resize_discard(n_dst, d, 0);
    DenseMatrix& inv_norm = inv_norms_[l];
    inv_norm.resize_discard(n_dst, 1);
    for (vid_t v = 0; v < block.num_dst; ++v) {
      const auto nbrs = block.neighbors(v);
      rows::add_neighbor_rows(nbrs, acts_[l].cview(), agg.row(static_cast<std::size_t>(v)));
      inv_norm.at(static_cast<std::size_t>(v), 0) =
          1.0f / (static_cast<real_t>(nbrs.size()) + 1.0f);
    }

    // Destination rows are the leading rows of the source activations.
    const ConstMatrixView h_dst{acts_[l].data(), n_dst, d};
    acts_[l + 1].resize_discard(n_dst, layer.out_dim());
    GraphSageLayer::combine(h_dst, agg.cview(), inv_norm.cview(), agg.view());
    layer.forward(agg.cview(), acts_[l + 1].view());
  }
  (void)training;
}

SampledEpochStats SampledSageTrainer::train_epoch() {
  SampledEpochStats stats;
  const auto begin = std::chrono::steady_clock::now();

  const auto batches = make_batches(train_vertices_, config_.batch_size, rng_);
  const CsrMatrix& in_csr = dataset_.graph.in_csr();

  DenseMatrix dY, dscaled, dH;
  std::vector<vid_t> identity;
  for (const auto& batch : batches) {
    const MiniBatch mb = sample_minibatch(in_csr, batch, config_.fanouts, rng_);
    stats.sampled_edges += mb.total_sampled_edges();
    forward_batch(mb, /*training=*/true);

    // Loss over the seeds (all masked: they are training vertices).
    std::vector<int> labels(mb.seeds.size());
    std::vector<std::uint8_t> mask(mb.seeds.size(), 1);
    for (std::size_t i = 0; i < mb.seeds.size(); ++i)
      labels[i] = dataset_.labels[static_cast<std::size_t>(mb.seeds[i])];
    const DenseMatrix& logits = acts_.back();
    stats.loss += loss_.forward(logits.cview(), labels, mask);

    model_.zero_grad();
    dY.resize_discard(logits.rows(), logits.cols());
    loss_.backward(dY.view());

    for (int l = model_.num_layers() - 1; l >= 0; --l) {
      const auto li = static_cast<std::size_t>(l);
      const SampledBlock& block = mb.blocks[li];
      GraphSageLayer& layer = model_.layer(l);
      const std::size_t d = layer.in_dim();
      const auto n_dst = static_cast<std::size_t>(block.num_dst);
      // Every destination row of a block is owned.
      identity.resize(n_dst);
      std::iota(identity.begin(), identity.end(), vid_t{0});
      // The input layer computes only its weight gradients.
      MatrixView scaled;
      if (l > 0) {
        dscaled.resize_discard(n_dst, d);
        scaled = dscaled.view();
      }
      layer.backward(identity, aggs_[li].cview(), inv_norms_[li].cview(), dY.cview(), scaled);
      if (l == 0) break;

      // dH over the block's sources: self path plus sampled-neighbour path.
      dH.resize_discard(static_cast<std::size_t>(block.num_src), d, 0);
      for (std::size_t i = 0; i < n_dst; ++i) {
        const real_t* g = dscaled.row(i);
        real_t* self = dH.row(i);
#pragma omp simd
        for (std::size_t j = 0; j < d; ++j) self[j] += g[j];
        for (const vid_t u : block.neighbors(static_cast<vid_t>(i))) {
          real_t* t = dH.row(static_cast<std::size_t>(u));
#pragma omp simd
          for (std::size_t j = 0; j < d; ++j) t[j] += g[j];
        }
      }
      dY = dH;
    }

    std::vector<ParamRef> params = model_.params();
    if (grad_hook_) grad_hook_(params);
    optimizer_.step(params);
    ++stats.num_batches;
  }

  stats.loss /= std::max(1, stats.num_batches);
  stats.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  return stats;
}

void SampledSageTrainer::restrict_train_vertices(std::vector<vid_t> vertices) {
  train_vertices_ = std::move(vertices);
}

double SampledSageTrainer::evaluate(const std::vector<std::uint8_t>& mask) {
  // Full-neighbourhood forward over the whole graph (standard GraphSAGE
  // evaluation): reuse the optimized AP.
  const CsrMatrix& in_csr = dataset_.graph.in_csr();
  const auto n = static_cast<std::size_t>(dataset_.num_vertices());

  DenseMatrix inv_norm(n, 1);
  for (std::size_t v = 0; v < n; ++v)
    inv_norm.at(v, 0) = 1.0f / (static_cast<real_t>(in_csr.degree(static_cast<vid_t>(v))) + 1.0f);

  ApConfig ap;
  ap.num_blocks = auto_num_blocks(dataset_.num_vertices(), static_cast<std::size_t>(dataset_.feature_dim()));
  DenseMatrix h = dataset_.features;
  DenseMatrix agg, next;
  for (int l = 0; l < model_.num_layers(); ++l) {
    agg.resize_discard(n, h.cols(), 0);
    aggregate(in_csr, h.cview(), {}, agg.view(), ap);
    next.resize_discard(n, model_.layer(l).out_dim());
    GraphSageLayer::combine(h.cview(), agg.cview(), inv_norm.cview(), agg.view());
    model_.layer(l).forward(agg.cview(), next.view());
    h = next;
  }
  return masked_accuracy(h.cview(), dataset_.labels, mask).accuracy();
}

}  // namespace distgnn
