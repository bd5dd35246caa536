#include "core/fullbatch_sage.hpp"

#include <stdexcept>
#include <utility>

namespace distgnn {

FullBatchSage::FullBatchSage(const FullBatchGraph& graph, const TrainConfig& config,
                             int num_classes, Clock clock, SyncHook sync, CutSync cut_sync)
    : config_(config),
      clock_(clock),
      sync_(std::move(sync)),
      cut_sync_(std::move(cut_sync)),
      features_(graph.features),
      model_(static_cast<int>(graph.features.cols), config.hidden_dim, num_classes,
             config.num_layers, config.seed),
      optimizer_(config.lr, config.momentum, config.weight_decay) {
  const vid_t n = graph.in_csr.num_rows();
  const auto rows = static_cast<std::size_t>(n);
  if (graph.in_degree.size() != rows || graph.features.rows != rows ||
      graph.labels.size() != rows || graph.loss_rows.size() != rows)
    throw std::invalid_argument(
        "FullBatchSage: one in-degree, feature row, label and loss flag per row expected");
  num_blocks_ = config_.num_blocks > 0 ? config_.num_blocks
                                       : auto_num_blocks(n, graph.features.cols);
  const int blocks = config_.ap_mode == ApMode::kOptimized ? num_blocks_ : 1;
  blocked_in_ = BlockedCsr(graph.in_csr, blocks);
  blocked_out_ = BlockedCsr(graph.out_csr, blocks);

  inv_norm_.resize_discard(rows, 1);
  for (std::size_t v = 0; v < inv_norm_.rows(); ++v)
    inv_norm_.at(v, 0) = 1.0f / (static_cast<real_t>(graph.in_degree[v]) + 1.0f);

  all_rows_ = OutputFrontier::all_rows(blocked_in_, blocked_out_, inv_norm_);
  train_rows_ = OutputFrontier::select(blocked_in_, blocked_out_, inv_norm_, graph.output_rows);
  train_labels_ = train_rows_.gather(graph.labels);
  train_loss_mask_ = train_rows_.gather(graph.loss_rows);

  combined_.resize(static_cast<std::size_t>(config_.num_layers));
  acts_.resize(static_cast<std::size_t>(config_.num_layers));
  if (!cut_sync_.owned.empty() && (!sync_ || cut_sync_.owned.size() != rows))
    throw std::invalid_argument("FullBatchSage: owned flags need a sync hook and one flag per row");
  // Without owned flags every row is owned.
  std::vector<std::uint8_t> flags(cut_sync_.owned.begin(), cut_sync_.owned.end());
  flags.resize(rows, 1);
  const auto index = [](std::span<const std::uint8_t> is_owned, Owned& out) {
    for (std::size_t i = 0; i < is_owned.size(); ++i)
      if (is_owned[i]) out.rows.push_back(static_cast<vid_t>(i));
    if (out.rows.size() == is_owned.size()) return;
    out.slot.assign(is_owned.size(), -1);
    for (std::size_t k = 0; k < out.rows.size(); ++k)
      out.slot[static_cast<std::size_t>(out.rows[k])] = static_cast<vid_t>(k);
  };
  index(flags, owned_);
  index(train_rows_.gather<std::uint8_t>(flags), train_owned_);
  owned_combined_.resize(combined_.size());
  for (int l = 0; l < config_.num_layers; ++l)
    if (!owned(l).slot.empty())
      owned_combined_[static_cast<std::size_t>(l)].resize_discard(owned(l).rows.size(),
                                                                  model_.layer(l).in_dim());

  // Layer 0's input is constant: aggregate it once, unless layer 0 is the
  // output layer, whose rows depend on the pass.
  if (config_.num_layers == 1) return;
  const double t0 = clock_();
  aggregate(blocked_in_, features_, sync_ ? input_agg_ : combined_[0]);
  input_ap_seconds_ = clock_() - t0;
  if (sync_) return;
  all_rows_.combine(features_, combined_[0].cview(), combined_[0].view());
  input_status_.settled = true;
}

double FullBatchSage::lap(double& total, double t0) const {
  const double now = clock_();
  total += now - t0;
  return now;
}

void FullBatchSage::aggregate(const BlockedCsr& blocks, ConstMatrixView X,
                              DenseMatrix& out) const {
  out.resize_discard(static_cast<std::size_t>(blocks.num_rows()), X.cols, 0);
  const ApConfig ap;
  if (config_.ap_mode == ApMode::kOptimized) {
    aggregate_prepartitioned(blocks, X, {}, out.view(), ap);
  } else {
    aggregate_baseline(blocks.block(0), X, {}, out.view(), ap.binary, ap.reduce);
  }
}

void FullBatchSage::forward(bool training, PassTimes& times) {
  const int last = config_.num_layers - 1;
  for (int l = 0; l < config_.num_layers; ++l) {
    const auto li = static_cast<std::size_t>(l);
    const OutputFrontier& rows = training && l == last ? train_rows_ : all_rows_;
    const ConstMatrixView H = l == 0 ? features_ : acts_[li - 1].cview();
    DenseMatrix& combined = combined_[li];
    GraphSageLayer& layer = model_.layer(l);
    double t0 = clock_();
    // A settled layer 0 runs only its Linear, over the kept combined_[0];
    // with a sync hook evaluation syncs it its own way.
    const bool input_layer = l == 0 && l != last;
    const bool kept = input_layer && input_status_.settled && (training || !sync_);
    SyncStatus status = kept ? input_status_ : SyncStatus{};
    if (!kept) {
      if (input_layer) {
        combined = input_agg_;
      } else {
        aggregate(rows.in(), H, combined);
      }
      t0 = lap(times.ap, t0);
      if (sync_) {
        status = sync_(l, training, combined.view());
        if (input_layer && training) input_status_ = status;
        t0 = lap(times.sync, t0);
      }
    }
    // A clone-exact layer runs its Linear on the owned rows only and sets
    // the leaves' rows from their roots' (see the header comment).
    const bool owned_only =
        l != last && status.clone_exact && !owned_.slot.empty() && cut_sync_.broadcast;
    if (!kept)
      rows.combine(H, combined.cview(), combined.view(),
                   training || owned_only ? owned(l).slot : std::span<const vid_t>{},
                   owned_combined_[li].view());
    DenseMatrix& act = acts_[li];
    act.resize_discard(rows.size(), layer.out_dim());
    if (owned_only) {
      owned_acts_.resize_discard(owned_.rows.size(), layer.out_dim());
      layer.forward(owned_combined_[li].cview(), owned_acts_.view());
      scatter_rows(owned_acts_.cview(), owned_.rows, act.view(), /*add=*/false);
      t0 = lap(times.mlp, t0);
      cut_sync_.broadcast(l, act.view());
      lap(times.sync, t0);
    } else {
      layer.forward(combined.cview(), act.view());
      lap(times.mlp, t0);
    }
  }
}

double FullBatchSage::train_pass(std::int64_t divisor, PassTimes& times) {
  const int last = config_.num_layers - 1;
  forward(/*training=*/true, times);

  double t0 = clock_();
  const double loss =
      loss_.forward(acts_.back().cview(), train_labels_, train_loss_mask_, divisor);
  model_.zero_grad();
  d_upper_.resize_discard(train_rows_.size(), acts_.back().cols());
  loss_.backward(d_upper_.view());

  for (int l = last; l >= 0; --l) {
    const auto li = static_cast<std::size_t>(l);
    const OutputFrontier& rows = l == last ? train_rows_ : all_rows_;
    GraphSageLayer& layer = model_.layer(l);
    // The input layer computes only its weight gradients: nothing needs the
    // gradient w.r.t. the input features.
    MatrixView dscaled;
    if (l > 0) {
      dscaled_.resize_discard(rows.size(), layer.in_dim());
      dscaled = dscaled_.view();
    }
    // The loss's dY is already complete at its rows, which are owned.
    if (l != last && cut_sync_.reduce) {
      cut_sync_.reduce(l, d_upper_.view());
      t0 = lap(times.sync, t0);
    }
    const Owned& own = owned(l);
    layer.backward(own.rows, own.slot.empty() ? combined_[li].cview() : owned_combined_[li].cview(),
                   rows.inv_norm(), d_upper_.cview(), dscaled);
    t0 = lap(times.mlp, t0);
    if (l > 0 && cut_sync_.broadcast) {
      cut_sync_.broadcast(l, dscaled);
      t0 = lap(times.sync, t0);
    }
    if (l == 0) break;

    // dH = dscaled + Aᵀ·dscaled (self + neighbour paths), full height; the
    // self path is a vertex's once, at its owned row.
    aggregate(rows.out(), dscaled_.cview(), dH_);
    rows.add_self(own.rows, dscaled_.cview(), dH_.view());
    t0 = lap(times.backward_ap, t0);
    std::swap(d_upper_, dH_);
  }
  return loss;
}

void FullBatchSage::step(PassTimes& times) {
  const double t0 = clock_();
  auto params = model_.params();
  optimizer_.step(params);
  lap(times.mlp, t0);
}

ConstMatrixView FullBatchSage::forward_all() {
  PassTimes unused;
  forward(/*training=*/false, unused);
  // With a sync hook evaluation overwrote combined_[0].
  if (sync_) input_status_ = {};
  return acts_.back().cview();
}

}  // namespace distgnn
