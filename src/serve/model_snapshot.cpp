#include "serve/model_snapshot.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/init.hpp"
#include "nn/layer_rows.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace distgnn::serve {

namespace {

std::size_t batch_rows(std::span<const MiniBatch> batch, std::size_t layer, bool src_side) {
  std::size_t rows = 0;
  for (const MiniBatch& mb : batch) {
    const SampledBlock& b = mb.blocks[layer];
    rows += static_cast<std::size_t>(src_side ? b.num_src : b.num_dst);
  }
  return rows;
}

/// Calls fn on every layer matrix in checkpoint order: per layer weight,
/// bias, relation weights ascending, attn_src, attn_dst, skipping the ones a
/// kind does not have. That is each trained model's params() order: SAGE
/// weight, bias; RGCN weight, bias, W_r (RgcnLayer::collect_params); GAT
/// weight, attn_src, attn_dst.
template <typename Layers, typename Fn>
void for_each_param(Layers& layers, const Fn& fn) {
  const auto visit = [&](auto& m) {
    if (!m.empty()) fn(m);
  };
  for (auto& lw : layers) {
    visit(lw.weight);
    visit(lw.bias);
    for (auto& wr : lw.rel_weight) visit(wr);
    visit(lw.attn_src);
    visit(lw.attn_dst);
  }
}

/// Rows [first, first + count) of m.
ConstMatrixView slice(ConstMatrixView m, std::size_t first, vid_t count) {
  return {m.data + first * m.cols, static_cast<std::size_t>(count), m.cols};
}

/// Sizes `next` to the stacked destination rows of every request's `hop`
/// block and calls row(block, in_off, v, y) once per destination v, request
/// by request: in_off is the request's first row among the stacked sources
/// and y the destination's output row. A request only ever reads its own
/// source slice, so a row's value does not depend on batch composition.
template <typename RowFn>
void for_each_destination(std::span<const MiniBatch> batch, std::size_t hop, std::size_t out_dim,
                          DenseMatrix& next, const RowFn& row) {
  next.resize_discard(batch_rows(batch, hop, /*src_side=*/false), out_dim);
  std::size_t in_off = 0, out_off = 0;
  for (const MiniBatch& mb : batch) {
    const SampledBlock& block = mb.blocks[hop];
    for (vid_t v = 0; v < block.num_dst; ++v)
      row(block, in_off, v, next.row(out_off + static_cast<std::size_t>(v)));
    in_off += static_cast<std::size_t>(block.num_src);
    out_off += static_cast<std::size_t>(block.num_dst);
  }
}

}  // namespace

std::size_t ModelSpec::in_dim(int layer) const {
  return static_cast<std::size_t>(layer == 0 ? feature_dim : hidden_dim);
}

std::size_t ModelSpec::out_dim(int layer) const {
  return static_cast<std::size_t>(layer == num_layers - 1 ? num_classes : hidden_dim);
}

std::shared_ptr<ModelSnapshot> ModelSnapshot::allocate(const ModelSpec& spec,
                                                       std::uint64_t version) {
  if (spec.num_layers < 1) throw std::invalid_argument("ModelSnapshot: num_layers must be >= 1");
  if (spec.kind == ModelKind::kRgcn && spec.num_relations < 1)
    throw std::invalid_argument("ModelSnapshot: RGCN spec needs num_relations >= 1");
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot(spec, version));
  for (int l = 0; l < spec.num_layers; ++l) {
    LayerWeights lw;
    const std::size_t in = spec.in_dim(l), out = spec.out_dim(l);
    lw.weight = DenseMatrix(in, out);
    if (spec.kind == ModelKind::kSage) {
      lw.bias = DenseMatrix(1, out);
      lw.relu = l != spec.num_layers - 1;
    } else if (spec.kind == ModelKind::kRgcn) {
      lw.bias = DenseMatrix(1, out);
      lw.relu = l != spec.num_layers - 1;
      lw.rel_weight.reserve(static_cast<std::size_t>(spec.num_relations));
      for (int r = 0; r < spec.num_relations; ++r) lw.rel_weight.emplace_back(in, out);
    } else {
      lw.attn_src = DenseMatrix(1, out);
      lw.attn_dst = DenseMatrix(1, out);
    }
    snap->layers_.push_back(std::move(lw));
  }
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::random(const ModelSpec& spec,
                                                           std::uint64_t seed,
                                                           std::uint64_t version) {
  auto snap = allocate(spec, version);
  Rng rng(seed);
  for (LayerWeights& lw : snap->layers_) {
    xavier_uniform(lw.weight.view(), lw.weight.rows(), lw.weight.cols(), rng);
    if (spec.kind == ModelKind::kGat) {
      xavier_uniform(lw.attn_src.view(), lw.weight.cols(), 1, rng);
      xavier_uniform(lw.attn_dst.view(), lw.weight.cols(), 1, rng);
    }
    for (DenseMatrix& wr : lw.rel_weight)
      xavier_uniform(wr.view(), wr.rows(), wr.cols(), rng);
  }
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::from_checkpoint(const ModelSpec& spec,
                                                                    const std::string& path,
                                                                    std::uint64_t version) {
  // Allocate the right shapes, then let load_checkpoint fill (and validate
  // against) them.
  auto snap = allocate(spec, version);
  std::vector<ParamRef> refs;
  for_each_param(snap->layers_,
                 [&](DenseMatrix& m) { refs.push_back({m.data(), nullptr, m.size()}); });
  load_checkpoint(refs, path);
  return snap;
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::from_flat(const ModelSpec& spec,
                                                              std::span<const real_t> flat,
                                                              std::uint64_t version) {
  auto snap = allocate(spec, version);
  std::size_t off = 0;
  for_each_param(snap->layers_, [&](DenseMatrix& dst) {
    if (off + dst.size() > flat.size())
      throw std::runtime_error("ModelSnapshot::from_flat: payload too small for spec");
    std::copy(flat.data() + off, flat.data() + off + dst.size(), dst.data());
    off += dst.size();
  });
  if (off != flat.size())
    throw std::runtime_error("ModelSnapshot::from_flat: payload larger than spec");
  return snap;
}

std::vector<real_t> ModelSnapshot::flatten() const {
  std::vector<real_t> flat;
  flat.reserve(num_parameters());
  for_each_param(layers_, [&](const DenseMatrix& m) {
    flat.insert(flat.end(), m.data(), m.data() + m.size());
  });
  return flat;
}

std::size_t ModelSnapshot::num_parameters() const {
  std::size_t n = 0;
  for_each_param(layers_, [&](const DenseMatrix& m) { n += m.size(); });
  return n;
}

void ModelSnapshot::forward_batch(std::span<const MiniBatch> batch, ConstMatrixView inputs,
                                  ForwardScratch& scratch, DenseMatrix& logits) const {
  const auto num_layers = layers_.size();
  for (const MiniBatch& mb : batch)
    if (mb.blocks.size() != num_layers)
      throw std::invalid_argument("ModelSnapshot: minibatch depth != model layers");
  if (inputs.rows != batch_rows(batch, 0, /*src_side=*/true) ||
      inputs.cols != static_cast<std::size_t>(spec_.feature_dim))
    throw std::invalid_argument("ModelSnapshot: stacked input shape mismatch");

  scratch.acts.resize(num_layers - 1);
  ConstMatrixView cur = inputs;
  for (std::size_t l = 0; l < num_layers; ++l) {
    DenseMatrix& next = l + 1 == num_layers ? logits : scratch.acts[l];
    apply_layer(layers_[l], batch, l, cur, scratch, next);
    cur = next.cview();
  }
}

void ModelSnapshot::forward_layer(int layer, std::span<const MiniBatch> batch,
                                  ConstMatrixView inputs, ForwardScratch& scratch,
                                  DenseMatrix& out) const {
  if (layer < 0 || layer >= static_cast<int>(layers_.size()))
    throw std::invalid_argument("ModelSnapshot::forward_layer: layer out of range");
  for (const MiniBatch& mb : batch)
    if (mb.blocks.size() != 1)
      throw std::invalid_argument("ModelSnapshot::forward_layer: expects one-hop minibatches");
  if (inputs.rows != batch_rows(batch, 0, /*src_side=*/true) ||
      inputs.cols != spec_.in_dim(layer))
    throw std::invalid_argument("ModelSnapshot::forward_layer: stacked input shape mismatch");

  // RGCN is excluded from the single-layer (embed-cache) path: relation
  // labels do not survive the per-(vertex, layer) canonical re-sampling.
  if (spec_.kind == ModelKind::kRgcn)
    throw std::invalid_argument("ModelSnapshot::forward_layer: RGCN has no embed-forward path");
  apply_layer(layers_[static_cast<std::size_t>(layer)], batch, 0, inputs, scratch, out);
}

void ModelSnapshot::apply_layer(const LayerWeights& lw, std::span<const MiniBatch> batch,
                                std::size_t hop, ConstMatrixView cur, ForwardScratch& scratch,
                                DenseMatrix& next) const {
  const ConstMatrixView W = lw.weight.cview();
  const std::size_t d_in = cur.cols, d_out = W.cols;
  switch (spec_.kind) {
    case ModelKind::kSage: {
      // GraphSageLayer: combine, affine, ReLU on hidden layers.
      scratch.row.resize(d_in);
      real_t* c = scratch.row.data();
      for_each_destination(batch, hop, d_out, next, [&](const SampledBlock& block,
                                                        std::size_t in_off, vid_t v, real_t* y) {
        const ConstMatrixView src = slice(cur, in_off, block.num_src);
        const auto nbrs = block.neighbors(v);
        std::fill(c, c + d_in, real_t{0});
        rows::add_neighbor_rows(nbrs, src, c);
        const real_t inv = 1.0f / (static_cast<real_t>(nbrs.size()) + 1.0f);
        rows::sage_combine(c, src.row(static_cast<std::size_t>(v)), inv, d_in, c);
        rows::affine(c, W, lw.bias.data(), y);
        if (lw.relu) rows::relu(y, d_out, y);
      });
      return;
    }
    case ModelKind::kGat: {
      // Project every source row and take its a_src half once, then attend
      // per destination over its sampled in-neighbours.
      scratch.z.resize_discard(cur.rows, d_out);
      scratch.src_term.resize(cur.rows);
      rows::xw_rows(cur, W, scratch.z.view());
      for (std::size_t i = 0; i < cur.rows; ++i)
        scratch.src_term[i] = rows::dot(scratch.z.row(i), lw.attn_src.data(), d_out);
      for_each_destination(batch, hop, d_out, next, [&](const SampledBlock& block,
                                                        std::size_t in_off, vid_t v, real_t* y) {
        const ConstMatrixView z = slice(scratch.z.cview(), in_off, block.num_src);
        const real_t dst_term =
            rows::dot(z.row(static_cast<std::size_t>(v)), lw.attn_dst.data(), d_out);
        const auto nbrs = block.neighbors(v);
        scratch.scores.resize(nbrs.size());
        rows::gat_attend(nbrs, scratch.src_term.data() + in_off, dst_term, spec_.leaky_slope, z,
                         scratch.scores.data(), y);
      });
      return;
    }
    case ModelKind::kRgcn: {
      // RgcnLayer: self affine, then relations ascending, then ReLU.
      for (const MiniBatch& mb : batch)
        if (mb.blocks[hop].rel.size() != mb.blocks[hop].col.size())
          throw std::invalid_argument("ModelSnapshot: RGCN forward needs relation-labelled blocks");
      scratch.row.resize(d_in);
      real_t* s = scratch.row.data();
      for_each_destination(batch, hop, d_out, next, [&](const SampledBlock& block,
                                                        std::size_t in_off, vid_t v, real_t* y) {
        const ConstMatrixView src = slice(cur, in_off, block.num_src);
        rows::affine(src.row(static_cast<std::size_t>(v)), W, lw.bias.data(), y);
        const auto nbrs = block.neighbors(v);
        const auto rels = block.relations(v);
        for (std::size_t r = 0; r < lw.rel_weight.size(); ++r) {
          std::fill(s, s + d_in, real_t{0});
          std::size_t count = 0;
          for (std::size_t e = 0; e < nbrs.size(); ++e) {
            if (rels[e] != static_cast<int>(r)) continue;
            rows::add_neighbor_rows(nbrs.subspan(e, 1), src, s);
            ++count;
          }
          // The trainer's 1/c_{v,r}, 0 for an empty relation. Its relation
          // term still accumulates: float += is sign-sensitive.
          rows::scale(s, count > 0 ? 1.0f / static_cast<real_t>(count) : 0.0f, d_in, s);
          rows::xw(s, lw.rel_weight[r].cview(), y, /*accumulate=*/true);
        }
        if (lw.relu) rows::relu(y, d_out, y);
      });
      return;
    }
  }
}

void SnapshotHolder::publish(std::shared_ptr<const ModelSnapshot> snapshot) {
  std::uint64_t version = 0;
  std::function<void(std::uint64_t)> hook;
  {
    util::MutexLock lock(mutex_);
    if (snapshot) version = snapshot->version();
    current_ = std::move(snapshot);
    hook = on_publish_;
  }
  // Outside the lock: the hook may take cache shard locks, and readers must
  // not block behind it.
  if (hook) hook(version);
}

std::shared_ptr<const ModelSnapshot> SnapshotHolder::get() const {
  util::MutexLock lock(mutex_);
  return current_;
}

void SnapshotHolder::set_on_publish(std::function<void(std::uint64_t)> hook) {
  util::MutexLock lock(mutex_);
  on_publish_ = std::move(hook);
}

}  // namespace distgnn::serve
