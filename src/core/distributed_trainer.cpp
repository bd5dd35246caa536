#include "core/distributed_trainer.hpp"

#include "util/parallel.hpp"

#include <array>
#include <chrono>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "comm/compression.hpp"
#include "comm/world.hpp"
#include "core/output_frontier.hpp"
#include "core/sage_model.hpp"
#include "kernels/aggregate.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "util/stopwatch.hpp"

namespace distgnn {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Tag layout: one distinct tag per (layer, bin, phase, purpose). Purpose 0 =
// training halo, 1 = evaluation halo (separate so an eval pass can never
// consume a pending delayed training message).
int make_tag(int layer, int bin, int phase, int purpose) {
  return ((layer * 1024 + bin) * 2 + phase) * 2 + purpose + 1;
}

std::vector<real_t> gather_rows(const DenseMatrix& m, const std::vector<vid_t>& rows) {
  const std::size_t d = m.cols();
  std::vector<real_t> out(rows.size() * d);
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::memcpy(out.data() + i * d, m.row(static_cast<std::size_t>(rows[i])), d * sizeof(real_t));
  return out;
}

void scatter_rows_add(DenseMatrix& m, const std::vector<vid_t>& rows,
                      const std::vector<real_t>& payload) {
  const std::size_t d = m.cols();
  if (payload.size() != rows.size() * d)
    throw std::logic_error("scatter_rows_add: payload size mismatch");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    real_t* dst = m.row(static_cast<std::size_t>(rows[i]));
    const real_t* src = payload.data() + i * d;
    for (std::size_t j = 0; j < d; ++j) dst[j] += src[j];
  }
}

void scatter_rows_set(DenseMatrix& m, const std::vector<vid_t>& rows,
                      const std::vector<real_t>& payload) {
  const std::size_t d = m.cols();
  if (payload.size() != rows.size() * d)
    throw std::logic_error("scatter_rows_set: payload size mismatch");
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::memcpy(m.row(static_cast<std::size_t>(rows[i])), payload.data() + i * d,
                d * sizeof(real_t));
}

/// Per-rank training state and the per-layer halo synchronization logic.
class RankTrainer {
 public:
  RankTrainer(Communicator& comm, const Dataset& dataset, const PartitionedGraph& pg,
              const std::vector<HaloPlan>& plans, const TrainConfig& config)
      : comm_(comm),
        config_(config),
        lp_(pg.parts[static_cast<std::size_t>(comm.rank())]),
        plan_(plans[static_cast<std::size_t>(comm.rank())]),
        model_(dataset.feature_dim(), config.hidden_dim, dataset.num_classes, config.num_layers,
               config.seed),
        optimizer_(config.lr, config.momentum, config.weight_decay) {
    const CsrMatrix in_csr = CsrMatrix::from_coo(lp_.edges);
    const CsrMatrix out_csr = CsrMatrix::transpose_from_coo(lp_.edges);
    const int nb = config.num_blocks > 0
                       ? config.num_blocks
                       : auto_num_blocks(lp_.num_vertices,
                                         static_cast<std::size_t>(dataset.feature_dim()));
    blocked_in_ = BlockedCsr(in_csr, nb);
    blocked_out_ = BlockedCsr(out_csr, nb);

    features_ = gather_local_features(lp_, dataset.features.cview());
    labels_ = gather_local_labels(lp_, dataset.labels);
    train_mask_ = gather_local_mask(lp_, dataset.train_mask);
    val_mask_ = gather_local_mask(lp_, dataset.val_mask);
    test_mask_ = gather_local_mask(lp_, dataset.test_mask);

    const auto n = static_cast<std::size_t>(lp_.num_vertices);
    inv_norm_.resize_discard(n, 1);
    for (std::size_t v = 0; v < n; ++v)
      inv_norm_.at(v, 0) = 1.0f / (static_cast<real_t>(lp_.global_in_degree[v]) + 1.0f);

    // The output frontier is every local clone of a training vertex, not
    // just its label owner: a leaf's partial aggregate reaches the owner
    // through the halo. The loss reads the owners only.
    all_rows_ = OutputFrontier::all_rows(blocked_in_, blocked_out_, inv_norm_);
    std::vector<std::uint8_t> train_clone(n);
    for (std::size_t v = 0; v < n; ++v)
      train_clone[v] = dataset.train_mask[static_cast<std::size_t>(lp_.global_ids[v])];
    train_rows_ = OutputFrontier::select(blocked_in_, blocked_out_, inv_norm_, train_clone);
    train_labels_ = train_rows_.gather(std::span<const int>(labels_));
    train_loss_mask_ = train_rows_.gather(std::span<const std::uint8_t>(lp_.owns_label));
    train_plan_ = restrict_halo_plan(plan_, train_rows_.compact_ids(lp_.num_vertices));

    acts_.resize(static_cast<std::size_t>(config.num_layers));
    aggs_.resize(static_cast<std::size_t>(config.num_layers));

    // The local features never change, so neither does layer 0's local
    // partial aggregate; the halo sync works on a copy of it each epoch.
    // The output layer aggregates its own rows every pass instead.
    if (config.num_layers > 1) {
      local_agg0_.resize_discard(n, features_.cols(), 0);
      aggregate_prepartitioned(blocked_in_, features_.cview(), {}, local_agg0_.view(),
                               ApConfig{});
    }

    // The output layer's cache holds only frontier rows, and only at roots:
    // its halo never returns totals to leaves.
    if (config.algorithm == Algorithm::kCdR &&
        config_.staleness == StalenessPolicy::kCache) {
      root_extra_.resize(static_cast<std::size_t>(config.num_layers));
      root_has_.resize(static_cast<std::size_t>(config.num_layers));
      leaf_total_.resize(static_cast<std::size_t>(config.num_layers));
      leaf_has_.resize(static_cast<std::size_t>(config.num_layers));
      for (int l = 0; l < config.num_layers; ++l) {
        const auto li = static_cast<std::size_t>(l);
        const std::size_t d = layer_in_dim(l);
        const std::size_t rows = l == last_layer() ? train_rows_.size() : n;
        root_extra_[li].resize_discard(rows, d, 0);
        root_has_[li].assign(rows, 0);
        if (l == last_layer()) continue;
        leaf_total_[li].resize_discard(n, d, 0);
        leaf_has_[li].assign(n, 0);
      }
    }

    // Global masked-vertex counts (gradient normalizers).
    std::int64_t local = 0;
    for (const auto m : train_mask_) local += m;
    const auto counts = comm_.allgather(local);
    global_train_count_ = std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  }

  std::size_t layer_in_dim(int l) const {
    return l == 0 ? features_.cols() : static_cast<std::size_t>(config_.hidden_dim);
  }

  int num_bins() const {
    return config_.algorithm == Algorithm::kCdR ? std::max(1, config_.delay) : 1;
  }

  int last_layer() const { return config_.num_layers - 1; }

  /// Forward pass. `epoch` drives the DRPA bin schedule. A training pass
  /// runs the output layer on the training frontier and its halo on
  /// train_plan_; when `exact` is true (evaluation) it runs on every row
  /// with the full plan, and a blocking cd-0 halo exchange is used
  /// regardless of the algorithm. Returns (LAT, RAT) seconds. LAT is the
  /// local aggregation of layers 1.. plus the restore of layer 0's cached
  /// local partial; that layer's aggregation itself ran once, at
  /// construction.
  /// Phase times use per-thread CPU clocks: ranks are simulated by threads
  /// that may outnumber host cores, and wall clock would charge scheduler
  /// waits of other ranks to this rank's LAT/RAT. For RAT this deliberately
  /// counts only halo pre/post-processing CPU, not blocked recv waits —
  /// in-process wait time measures host scheduling, not network cost, which
  /// is why the runtime reports communication *volumes* (CommStats) instead.
  std::pair<double, double> forward(int epoch, bool exact) {
    double lat = 0.0, rat = 0.0;
    for (int l = 0; l < config_.num_layers; ++l) {
      const auto li = static_cast<std::size_t>(l);
      const bool output = l == last_layer();
      const OutputFrontier& rows = output && !exact ? train_rows_ : all_rows_;
      const HaloPlan& plan = output && !exact ? train_plan_ : plan_;
      const ConstMatrixView H = l == 0 ? features_.cview() : acts_[li - 1].cview();
      double t0 = thread_cpu_seconds();
      if (l == 0 && !output) {
        aggs_[0] = local_agg0_;
      } else {
        aggs_[li].resize_discard(rows.size(), H.cols, 0);
        aggregate_prepartitioned(rows.in(), H, {}, aggs_[li].view(), ApConfig{});
      }
      lat += thread_cpu_seconds() - t0;

      t0 = thread_cpu_seconds();
      if (exact) {
        halo_sync_blocking(l, plan, /*purpose=*/1);
      } else {
        switch (config_.algorithm) {
          case Algorithm::k0c: break;
          case Algorithm::kCd0: halo_sync_blocking(l, plan, /*purpose=*/0); break;
          case Algorithm::kCdR: halo_sync_delayed(l, plan, epoch); break;
        }
      }
      rat += thread_cpu_seconds() - t0;

      // The synced aggregate becomes the layer's Linear input in place.
      rows.combine(H, aggs_[li].cview(), aggs_[li].view());
      acts_[li].resize_discard(rows.size(), model_.layer(l).out_dim());
      model_.layer(l).forward(aggs_[li].cview(), acts_[li].view());
    }
    return {lat, rat};
  }

  double train_epoch_body(int epoch, double& lat, double& rat) {
    auto [l, r] = forward(epoch, /*exact=*/false);
    lat = l;
    rat = r;

    double loss = loss_.forward(acts_.back().cview(), train_labels_, train_loss_mask_,
                                global_train_count_);
    // Global loss for reporting (gradients already use the global divisor).
    std::array<double, 1> loss_buf{loss};
    comm_.allreduce_sum(std::span<double>(loss_buf));
    loss = loss_buf[0];

    model_.zero_grad();
    d_upper_.resize_discard(train_rows_.size(), acts_.back().cols());
    loss_.backward(d_upper_.view());

    for (int l2 = last_layer(); l2 >= 0; --l2) {
      const OutputFrontier& rows = l2 == last_layer() ? train_rows_ : all_rows_;
      // The input layer computes only its weight gradients.
      MatrixView dscaled;
      if (l2 > 0) {
        dscaled_.resize_discard(rows.size(), model_.layer(l2).in_dim());
        dscaled = dscaled_.view();
      }
      model_.layer(l2).backward_to_scaled(aggs_[static_cast<std::size_t>(l2)].cview(),
                                          rows.inv_norm(), d_upper_.cview(), dscaled);
      if (l2 == 0) break;
      // dH = dscaled + A_localᵀ · dscaled, full height.
      dH_.resize_discard(static_cast<std::size_t>(rows.out().num_rows()), dscaled_.cols(), 0);
      aggregate_prepartitioned(rows.out(), dscaled_.cview(), {}, dH_.view(), ApConfig{});
      rows.add_self(dscaled_.cview(), dH_.view());
      std::swap(d_upper_, dH_);
    }

    allreduce_gradients();
    auto params = model_.params();
    optimizer_.step(params);
    return loss;
  }

  /// Fully synchronized evaluation over the three masks; returns global
  /// accuracies (identical on every rank).
  std::array<double, 3> evaluate_all() {
    forward(/*epoch=*/0, /*exact=*/true);
    const std::array<const std::vector<std::uint8_t>*, 3> masks{&train_mask_, &val_mask_,
                                                                &test_mask_};
    std::array<double, 3> out{};
    for (std::size_t k = 0; k < masks.size(); ++k) {
      const AccuracyCount c = masked_accuracy(acts_.back().cview(), labels_, *masks[k]);
      const auto corrects = comm_.allgather(c.correct);
      const auto totals = comm_.allgather(c.total);
      const auto correct = std::accumulate(corrects.begin(), corrects.end(), std::int64_t{0});
      const auto total = std::accumulate(totals.begin(), totals.end(), std::int64_t{0});
      out[k] = total == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(total);
    }
    return out;
  }

 private:
  /// Halo payloads travel at config_.halo_precision (fp32/bf16/fp16);
  /// gradient AllReduce always stays fp32.
  void send_halo(part_t dest, int tag, std::vector<real_t> payload) {
    comm_.send(dest, tag, encode_halo(payload, config_.halo_precision));
  }
  std::vector<real_t> recv_halo(part_t source, int tag, std::size_t count) {
    return decode_halo(comm_.recv(source, tag), count, config_.halo_precision);
  }

  /// cd-0 (and evaluation) halo: blocking two-phase tree sync on bin 0..all.
  /// The output layer runs phase 0 only: label owners are roots, and no
  /// leaf reads an output total.
  void halo_sync_blocking(int layer, const HaloPlan& plan, int purpose) {
    for (int bin = 0; bin < plan.num_bins; ++bin) {
      DenseMatrix& agg = aggs_[static_cast<std::size_t>(layer)];
      // Phase 0: leaves -> roots.
      for (part_t p = 0; p < plan.num_parts; ++p) {
        if (p == comm_.rank()) continue;
        send_halo(p, make_tag(layer, bin, 0, purpose),
                  gather_rows(agg, plan.peer(bin, p).send_leaf));
      }
      for (part_t p = 0; p < plan.num_parts; ++p) {
        if (p == comm_.rank()) continue;
        const auto payload = recv_halo(p, make_tag(layer, bin, 0, purpose),
                                       plan.peer(bin, p).recv_root.size() * agg.cols());
        scatter_rows_add(agg, plan.peer(bin, p).recv_root, payload);
      }
      if (layer == last_layer()) continue;
      // Phase 1: roots -> leaves (totals overwrite leaf partials).
      for (part_t p = 0; p < plan.num_parts; ++p) {
        if (p == comm_.rank()) continue;
        send_halo(p, make_tag(layer, bin, 1, purpose),
                  gather_rows(agg, plan.peer(bin, p).send_root));
      }
      for (part_t p = 0; p < plan.num_parts; ++p) {
        if (p == comm_.rank()) continue;
        const auto payload = recv_halo(p, make_tag(layer, bin, 1, purpose),
                                       plan.peer(bin, p).recv_leaf.size() * agg.cols());
        scatter_rows_set(agg, plan.peer(bin, p).recv_leaf, payload);
      }
    }
  }

  /// cd-r: Alg. 4. Only bin (epoch % r) communicates; leaf partials sent in
  /// epoch e are folded into roots at e+r and the returned totals reach the
  /// leaves at e+2r. The output layer stops after the fold at the roots, as
  /// in halo_sync_blocking.
  void halo_sync_delayed(int layer, const HaloPlan& plan, int epoch) {
    const int r = num_bins();
    const int bin = epoch % r;
    DenseMatrix& agg = aggs_[static_cast<std::size_t>(layer)];
    const auto li = static_cast<std::size_t>(layer);

    // (a) Leaves push this epoch's *fresh local* partials for the bin.
    for (part_t p = 0; p < plan.num_parts; ++p) {
      if (p == comm_.rank()) continue;
      send_halo(p, make_tag(layer, bin, 0, 0), gather_rows(agg, plan.peer(bin, p).send_leaf));
    }

    const bool cache = config_.staleness == StalenessPolicy::kCache;

    // (b) Mature leaf->root messages: these were sent r epochs ago.
    if (epoch >= r) {
      if (cache) {
        // Reset the bin's cached rows, then accumulate the fresh payloads.
        for (part_t p = 0; p < plan.num_parts; ++p) {
          if (p == comm_.rank()) continue;
          for (const vid_t row : plan.peer(bin, p).recv_root) {
            real_t* dst = root_extra_[li].row(static_cast<std::size_t>(row));
            std::fill(dst, dst + root_extra_[li].cols(), real_t{0});
          }
        }
        for (part_t p = 0; p < plan.num_parts; ++p) {
          if (p == comm_.rank()) continue;
          const auto payload = recv_halo(p, make_tag(layer, bin, 0, 0),
                                         plan.peer(bin, p).recv_root.size() * agg.cols());
          scatter_rows_add(root_extra_[li], plan.peer(bin, p).recv_root, payload);
          for (const vid_t row : plan.peer(bin, p).recv_root)
            root_has_[li][static_cast<std::size_t>(row)] = 1;
        }
      } else {
        for (part_t p = 0; p < plan.num_parts; ++p) {
          if (p == comm_.rank()) continue;
          const auto payload = recv_halo(p, make_tag(layer, bin, 0, 0),
                                         plan.peer(bin, p).recv_root.size() * agg.cols());
          scatter_rows_add(agg, plan.peer(bin, p).recv_root, payload);
        }
      }
    }

    // (c) Fold the cached remote leaf sums into every root's fresh partial.
    if (cache) {
      const std::size_t n = agg.rows(), d = agg.cols();
      for (std::size_t v = 0; v < n; ++v) {
        if (!root_has_[li][v]) continue;
        real_t* dst = agg.row(v);
        const real_t* src = root_extra_[li].row(v);
        for (std::size_t j = 0; j < d; ++j) dst[j] += src[j];
      }
    }

    if (layer == last_layer()) return;

    // (d) Roots return (possibly stale-augmented) totals for the bin. Alg. 4
    // guards this send with e >= r (lines 13-16), which keeps the root->leaf
    // channel exactly one delay behind the leaf->root one.
    if (epoch >= r) {
      for (part_t p = 0; p < plan.num_parts; ++p) {
        if (p == comm_.rank()) continue;
        send_halo(p, make_tag(layer, bin, 1, 0), gather_rows(agg, plan.peer(bin, p).send_root));
      }
    }

    // (e) Mature root->leaf totals (sent r epochs ago).
    if (epoch >= 2 * r) {
      if (cache) {
        for (part_t p = 0; p < plan.num_parts; ++p) {
          if (p == comm_.rank()) continue;
          const auto payload = recv_halo(p, make_tag(layer, bin, 1, 0),
                                         plan.peer(bin, p).recv_leaf.size() * agg.cols());
          scatter_rows_set(leaf_total_[li], plan.peer(bin, p).recv_leaf, payload);
          for (const vid_t row : plan.peer(bin, p).recv_leaf)
            leaf_has_[li][static_cast<std::size_t>(row)] = 1;
        }
      } else {
        for (part_t p = 0; p < plan.num_parts; ++p) {
          if (p == comm_.rank()) continue;
          const auto payload = recv_halo(p, make_tag(layer, bin, 1, 0),
                                         plan.peer(bin, p).recv_leaf.size() * agg.cols());
          scatter_rows_set(agg, plan.peer(bin, p).recv_leaf, payload);
        }
      }
    }

    // (f) Leaves substitute the freshest known global total.
    if (cache) {
      const std::size_t n = agg.rows(), d = agg.cols();
      for (std::size_t v = 0; v < n; ++v) {
        if (!leaf_has_[li][v]) continue;
        std::memcpy(agg.row(v), leaf_total_[li].row(v), d * sizeof(real_t));
      }
    }
  }

  void allreduce_gradients() {
    auto params = model_.params();
    std::size_t total = 0;
    for (const auto& p : params) total += p.size;
    flat_grads_.resize(total);
    std::size_t off = 0;
    for (const auto& p : params) {
      std::memcpy(flat_grads_.data() + off, p.grad, p.size * sizeof(real_t));
      off += p.size;
    }
    comm_.allreduce_sum(std::span<real_t>(flat_grads_));
    off = 0;
    for (const auto& p : params) {
      std::memcpy(p.grad, flat_grads_.data() + off, p.size * sizeof(real_t));
      off += p.size;
    }
  }

  Communicator& comm_;
  const TrainConfig& config_;
  const LocalPartition& lp_;
  const HaloPlan& plan_;
  SageModel model_;
  SoftmaxCrossEntropy loss_;
  Sgd optimizer_;

  BlockedCsr blocked_in_, blocked_out_;
  DenseMatrix features_, inv_norm_;
  std::vector<int> labels_;
  std::vector<std::uint8_t> train_mask_, val_mask_, test_mask_;
  std::int64_t global_train_count_ = 0;

  // all_rows_: hidden layers, and the output layer in evaluation.
  // train_rows_: the output layer in training, with its labels, its loss
  // mask (owns_label) and plan_ restricted to its trees in compact ids.
  OutputFrontier all_rows_, train_rows_;
  std::vector<int> train_labels_;
  std::vector<std::uint8_t> train_loss_mask_;
  HaloPlan train_plan_;

  // aggs_[l]: layer l's aggregate, which the halo sync completes and the
  // combine then turns, in place, into the layer's Linear input (kept for
  // backward); the output layer's has its frontier's rows. local_agg0_:
  // layer 0's local partial aggregate, built once. acts_[l]: layer l's
  // output; layer 0 reads features_.
  std::vector<DenseMatrix> acts_, aggs_;
  DenseMatrix local_agg0_;
  DenseMatrix d_upper_, dscaled_, dH_;
  std::vector<real_t> flat_grads_;

  // cd-r staleness caches (kCache policy), per layer; the output layer has
  // only root_extra_/root_has_, over its training frontier.
  std::vector<DenseMatrix> root_extra_, leaf_total_;
  std::vector<std::vector<std::uint8_t>> root_has_, leaf_has_;
};

}  // namespace

double DistTrainResult::mean_epoch_seconds(int skip) const {
  double sum = 0.0;
  int count = 0;
  for (std::size_t e = static_cast<std::size_t>(skip); e < epochs.size(); ++e) {
    sum += epochs[e].total_seconds;
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

double DistTrainResult::mean_local_agg_seconds(int skip) const {
  double sum = 0.0;
  int count = 0;
  for (std::size_t e = static_cast<std::size_t>(skip); e < epochs.size(); ++e) {
    sum += epochs[e].local_agg_seconds;
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

double DistTrainResult::mean_remote_agg_seconds(int skip) const {
  double sum = 0.0;
  int count = 0;
  for (std::size_t e = static_cast<std::size_t>(skip); e < epochs.size(); ++e) {
    sum += epochs[e].remote_agg_seconds;
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

DistTrainResult train_distributed(const Dataset& dataset, const PartitionedGraph& pg,
                                  const TrainConfig& config) {
  const int num_bins = config.algorithm == Algorithm::kCdR ? std::max(1, config.delay) : 1;
  const std::vector<HaloPlan> plans = build_halo_plans(pg, num_bins);

  DistTrainResult result;
  result.epochs.resize(static_cast<std::size_t>(config.epochs));

  const int hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  const int threads_per_rank =
      config.threads_per_rank > 0
          ? config.threads_per_rank
          : std::max(1, hw_threads / std::max(1, static_cast<int>(pg.num_parts)));

  World world(pg.num_parts);
  world.run([&](Communicator& comm) {
    par::set_num_threads(threads_per_rank);
    RankTrainer trainer(comm, dataset, pg, plans, config);

    for (int e = 0; e < config.epochs; ++e) {
      comm.barrier();
      const auto t0 = std::chrono::steady_clock::now();
      double lat = 0.0, rat = 0.0;
      const double loss = trainer.train_epoch_body(e, lat, rat);
      double total = seconds_since(t0);

      // Record the slowest rank's phase times (the paper plots per-epoch
      // times of the whole machine, which the stragglers define).
      std::array<real_t, 3> times{static_cast<real_t>(lat), static_cast<real_t>(rat),
                                  static_cast<real_t>(total)};
      comm.allreduce_max(std::span<real_t>(times));
      if (comm.rank() == 0) {
        auto& rec = result.epochs[static_cast<std::size_t>(e)];
        rec.loss = loss;
        rec.local_agg_seconds = times[0];
        rec.remote_agg_seconds = times[1];
        rec.total_seconds = times[2];
      }
    }

    const auto acc = trainer.evaluate_all();
    const auto bytes = comm.allgather(static_cast<std::int64_t>(comm.stats().bytes_sent));
    const auto ar_bytes = comm.allgather(static_cast<std::int64_t>(comm.stats().allreduce_bytes));
    if (comm.rank() == 0) {
      result.train_accuracy = acc[0];
      result.val_accuracy = acc[1];
      result.test_accuracy = acc[2];
      for (const auto b : bytes) result.total_bytes_sent += static_cast<std::uint64_t>(b);
      for (const auto b : ar_bytes) result.allreduce_bytes += static_cast<std::uint64_t>(b);
    }
  });
  return result;
}

}  // namespace distgnn
