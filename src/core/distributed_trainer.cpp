#include "core/distributed_trainer.hpp"

#include "util/parallel.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "comm/compression.hpp"
#include "comm/world.hpp"
#include "core/fullbatch_sage.hpp"
#include "nn/metrics.hpp"
#include "util/stopwatch.hpp"

namespace distgnn {

namespace {

// Alg. 4's two moves: leaves push partials to their roots, and roots return
// totals to their leaves.
enum Direction { kToRoot = 0, kToLeaf = 1 };

// Tag layout: one distinct tag per (layer, bin, direction, purpose). Purpose
// 0 = training halo, 1 = evaluation halo (separate so an eval pass can never
// consume a pending delayed training message), 2 = the cut's own moves: the
// training backward's gradient exchange and, in training and evaluation
// alike, a clone-exact layer's activation move. Only cd-r's lagged moves
// leave a payload in flight past the call that sends it, and they use
// purpose 0. Every purpose-2 move runs at lag 0, sends and receives within
// one call, and runs on every rank in the same order (its schedule depends
// only on the config and the epoch), so a channel's FIFO order pairs each
// receive with the send of the same move. A layer has kMaxBins bin slots,
// so cd-r's delay is at most kMaxBins.
constexpr int kTrainHalo = 0, kEvalHalo = 1, kCutHalo = 2;
constexpr int kMaxBins = 1024;
int make_tag(int layer, int bin, Direction dir, int purpose) {
  return ((layer * kMaxBins + bin) * 2 + dir) * 3 + purpose + 1;
}

std::vector<real_t> gather_rows(ConstMatrixView m, const std::vector<vid_t>& rows) {
  const std::size_t d = m.cols;
  std::vector<real_t> out;
  out.reserve(rows.size() * d);
  for (const vid_t r : rows) {
    const real_t* src = m.row(static_cast<std::size_t>(r));
    out.insert(out.end(), src, src + d);
  }
  return out;
}

/// m[rows[i]] += (add) or = (set) payload row i.
void scatter_payload(MatrixView m, const std::vector<vid_t>& rows,
                     const std::vector<real_t>& payload, bool add) {
  if (payload.size() != rows.size() * m.cols)
    throw std::logic_error("scatter_payload: payload size mismatch");
  scatter_rows(ConstMatrixView(payload.data(), rows.size(), m.cols), rows, m, add);
}

/// The program over one rank's local partition. The output frontier is
/// every local clone of a training vertex, not just its label owner: a
/// leaf's partial aggregate reaches the owner through the halo. The loss
/// reads the owners only.
FullBatchSage local_pass(const LocalPartition& lp, const Dataset& dataset,
                         const DenseMatrix& features, const std::vector<int>& labels,
                         const TrainConfig& config, FullBatchSage::SyncHook sync,
                         FullBatchSage::CutSync cut_sync) {
  const CsrMatrix in_csr = CsrMatrix::from_coo(lp.edges);
  const CsrMatrix out_csr = CsrMatrix::transpose_from_coo(lp.edges);
  std::vector<std::uint8_t> train_clone(lp.global_ids.size());
  for (std::size_t v = 0; v < train_clone.size(); ++v)
    train_clone[v] = dataset.train_mask[static_cast<std::size_t>(lp.global_ids[v])];
  return FullBatchSage({.in_csr = in_csr,
                        .out_csr = out_csr,
                        .in_degree = lp.global_in_degree,
                        .features = features.cview(),
                        .labels = labels,
                        .output_rows = train_clone,
                        .loss_rows = lp.owns_label},
                       config, dataset.num_classes, thread_cpu_seconds, std::move(sync),
                       std::move(cut_sync));
}

/// One rank: its partition's data, the program over it, the halo exchange
/// the program calls as its sync hook and, as its cut sync, the activation
/// move and the exchange transposed, and the loss and gradient AllReduce.
class RankTrainer {
 public:
  RankTrainer(Communicator& comm, const Dataset& dataset, const PartitionedGraph& pg,
              const std::vector<HaloPlan>& plans, const TrainConfig& config)
      : comm_(comm),
        config_(config),
        lp_(pg.parts[static_cast<std::size_t>(comm.rank())]),
        plan_(plans[static_cast<std::size_t>(comm.rank())]),
        features_(gather_local_features(lp_, dataset.features.cview())),
        labels_(gather_local_labels(lp_, dataset.labels)),
        train_mask_(gather_local_mask(lp_, dataset.train_mask)),
        val_mask_(gather_local_mask(lp_, dataset.val_mask)),
        test_mask_(gather_local_mask(lp_, dataset.test_mask)),
        pass_(local_pass(lp_, dataset, features_, labels_, config,
                         [this](int layer, bool training, MatrixView agg) {
                           return sync(layer, training, agg);
                         },
                         cut_sync())),
        train_plan_(
            restrict_halo_plan(plan_, pass_.output_frontier().compact_ids(lp_.num_vertices))),
        last_payloads_(static_cast<std::size_t>(
            config.algorithm == Algorithm::kCdR ? 2 * config.num_layers * config.delay * comm.size()
                                                : 0)),
        settle_epoch_(input_settle_epoch(config)) {
    // The gradient normalizer: the global count of training vertices.
    global_train_count_ =
        global_sum(std::accumulate(train_mask_.begin(), train_mask_.end(), std::int64_t{0}));
  }
  // The program's sync hook holds `this`.
  RankTrainer(const RankTrainer&) = delete;
  RankTrainer& operator=(const RankTrainer&) = delete;

  int last_layer() const { return config_.num_layers - 1; }

  /// One training epoch; returns the global loss. `times.ap` is LAT: the
  /// local aggregation of layers 1.. plus, until layer 0's synced input
  /// settles, the restore of its local partial, whose aggregation ran once,
  /// at construction. `times.sync` is RAT: the forward's halo (layer 0's
  /// until it settles), the activation move of each clone-exact layer and
  /// the backward's gradient exchange.
  /// Phase times use per-thread CPU clocks: ranks are simulated by threads
  /// that may outnumber host cores, and wall clock would charge scheduler
  /// waits of other ranks to this rank's LAT/RAT. For RAT this deliberately
  /// counts only halo pre/post-processing CPU, not blocked recv waits —
  /// in-process wait time measures host scheduling, not network cost, which
  /// is why the runtime reports communication *volumes* (CommStats) instead.
  double train_epoch(int epoch, PassTimes& times) {
    epoch_ = epoch;
    // The gradients already use the global divisor; the loss is summed
    // over ranks for reporting.
    std::array<double, 1> loss{pass_.train_pass(global_train_count_, times)};
    comm_.allreduce_sum(std::span<double>(loss));
    allreduce_gradients(comm_, pass_.model().params());
    pass_.step(times);
    return loss[0];
  }

  /// Fully synchronized evaluation over the three masks; returns global
  /// accuracies (identical on every rank).
  std::array<double, 3> evaluate_all() {
    const ConstMatrixView logits = pass_.forward_all();
    const std::array<const std::vector<std::uint8_t>*, 3> masks{&train_mask_, &val_mask_,
                                                                &test_mask_};
    std::array<double, 3> out{};
    for (std::size_t k = 0; k < masks.size(); ++k) {
      const AccuracyCount c = masked_accuracy(logits, labels_, *masks[k]);
      const std::int64_t correct = global_sum(c.correct), total = global_sum(c.total);
      out[k] = total == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(total);
    }
    return out;
  }

 private:
  std::int64_t global_sum(std::int64_t local) {
    const auto all = comm_.allgather(local);
    return std::accumulate(all.begin(), all.end(), std::int64_t{0});
  }

  /// The program's sync hook. Training runs the configured algorithm: none
  /// for 0c, Alg. 4 at lag 0 for cd-0 and at lag r for cd-r, the output
  /// layer's on train_plan_. Evaluation is exact: lag 0 over the full plan.
  /// Returns whether layer 0's synced training input has settled, and
  /// whether every leaf's synced row is its root's total: after a lag-0
  /// sync and after kCache's layer 0 settles, if the halo travels at fp32.
  FullBatchSage::SyncStatus sync(int layer, bool training, MatrixView agg) {
    const bool fp32 = config_.halo_precision == HaloPrecision::kFp32;
    if (!training) {
      exact_sync(layer, plan_, agg, kEvalHalo);
      return {.clone_exact = fp32};
    }
    if (config_.algorithm == Algorithm::kCd0) exact_sync(layer, plan_for(layer), agg, kTrainHalo);
    if (config_.algorithm == Algorithm::kCdR) lagged_sync(layer, agg);
    const bool settled = layer == 0 && epoch_ >= settle_epoch_;
    return {.settled = settled,
            .clone_exact = fp32 && (config_.algorithm == Algorithm::kCd0 ||
                                    (config_.algorithm == Algorithm::kCdR && settled))};
  }

  /// The first epoch whose synced layer-0 training input every later epoch
  /// would reproduce; config.epochs for none in the run. Layer 0 aggregates
  /// the constant input features, so its payloads never change: 0c and cd-0
  /// settle at once. In cd-r kCache each root->leaf payload is sent from
  /// totals of every leaf's payload, so the last bin's lands at epoch 3r - 1
  /// (r to reach the roots, r to return, r - 1 to the last bin). kLiteral's
  /// input cycles with the bin and never settles.
  static int input_settle_epoch(const TrainConfig& config) {
    if (config.algorithm != Algorithm::kCdR) return 0;
    return config.staleness == StalenessPolicy::kCache ? 3 * config.delay - 1 : config.epochs;
  }

  /// The end of the epochs at which `layer`'s training halo receives: the
  /// run's, or for layer 0 below the output the epoch after it settles,
  /// since no later training pass calls its hook.
  int receive_end(int layer) const {
    if (layer == 0 && layer != last_layer() && settle_epoch_ < config_.epochs)
      return settle_epoch_ + 1;
    return config_.epochs;
  }

  /// Alg. 4 at lag 0: both moves over every bin. The output layer's halo
  /// moves to roots only: label owners are roots, and no leaf reads an
  /// output total.
  void exact_sync(int layer, const HaloPlan& plan, MatrixView agg, int purpose) {
    move(layer, plan, kToRoot, agg, purpose);
    if (layer != last_layer()) move(layer, plan, kToLeaf, agg, purpose);
  }

  /// The program's cut sync: the two moves at lag 0, in cd-0 and cd-r
  /// alike. Root->leaf sets a clone-exact layer's activations in the
  /// forward; transposed, the moves are the backward's exchange. Lag 0 is
  /// the one lag under which cd-0's gradient is the single socket's. 0c has
  /// none: by definition it exchanges nothing, and every clone runs its
  /// forward and backward.
  FullBatchSage::CutSync cut_sync() {
    if (config_.algorithm == Algorithm::k0c) return {};
    return {.owned = lp_.owns_label,
            .reduce = [this](int layer, MatrixView dH) {
              move(layer, plan_for(layer), kToRoot, dH, kCutHalo);
            },
            .broadcast = [this](int layer, MatrixView m) {
              move(layer, plan_for(layer), kToLeaf, m, kCutHalo);
            }};
  }

  /// The plan of `layer`'s training halo: train_plan_ at the output layer.
  const HaloPlan& plan_for(int layer) const {
    return layer == last_layer() ? train_plan_ : plan_;
  }

  /// One of Alg. 4's two moves at lag 0, over every bin of `plan`: to roots,
  /// each root adds its peers' payloads in ascending peer order; to leaves,
  /// each leaf's row is set to its root's. A row belongs to one tree, so to
  /// one bin.
  void move(int layer, const HaloPlan& plan, Direction dir, MatrixView m, int purpose) {
    for (int bin = 0; bin < plan.num_bins; ++bin) {
      const int tag = make_tag(layer, bin, dir, purpose);
      send_move(plan, bin, dir, m, tag);
      for_each_peer([&](part_t p) {
        const std::vector<vid_t>& rows = landing_rows(plan.peer(bin, p), dir);
        scatter_payload(m, rows, recv_halo(p, tag, rows.size() * m.cols), dir == kToRoot);
      });
    }
  }

  /// cd-r: Alg. 4 at lag r, over bin e mod r only. Each move sends the
  /// bin's rows now and receives what the peers sent r epochs before, which
  /// becomes the last payload of its channel. kLiteral applies this epoch's
  /// payloads; kCache re-applies the last payload of every channel. A row
  /// belongs to one tree, so to one bin, and each root adds its payloads in
  /// lag 0's ascending peer order. A payload is sent only if it lands before
  /// receive_end(layer), so every payload sent is received.
  void lagged_sync(int layer, MatrixView agg) {
    const HaloPlan& plan = plan_for(layer);
    const int lag = config_.delay;
    const int bin = epoch_ % lag;
    const int end = receive_end(layer);
    const bool cache = config_.staleness == StalenessPolicy::kCache;
    for (const Direction dir : {kToRoot, kToLeaf}) {
      if (dir == kToLeaf && layer == last_layer()) break;
      const int tag = make_tag(layer, bin, dir, kTrainHalo);
      // Alg. 4 returns totals only from epoch r on (lines 13-16), which
      // keeps the root->leaf channel one lag behind the leaf->root one.
      const int first_send = dir == kToRoot ? 0 : lag;
      if (epoch_ >= first_send && epoch_ + lag < end) send_move(plan, bin, dir, agg, tag);
      if (epoch_ >= first_send + lag && epoch_ < end)
        for_each_peer([&](part_t p) {
          last_payload(layer, bin, p, dir) =
              recv_halo(p, tag, landing_rows(plan.peer(bin, p), dir).size() * agg.cols);
        });
      const int first = cache ? 0 : bin, end = cache ? plan.num_bins : bin + 1;
      for (int b = first; b < end; ++b)
        for_each_peer([&](part_t p) {
          const std::vector<real_t>& payload = last_payload(layer, b, p, dir);
          if (!payload.empty())
            scatter_payload(agg, landing_rows(plan.peer(b, p), dir), payload, dir == kToRoot);
        });
    }
  }

  /// Sends each peer the rows of `m` that `dir` moves from this rank.
  void send_move(const HaloPlan& plan, int bin, Direction dir, ConstMatrixView m, int tag) {
    for_each_peer([&](part_t p) {
      const HaloPeerLists& lists = plan.peer(bin, p);
      send_halo(p, tag, gather_rows(m, dir == kToRoot ? lists.leaf : lists.root));
    });
  }

  /// The rows a payload of `dir` from this peer lands on.
  static const std::vector<vid_t>& landing_rows(const HaloPeerLists& lists, Direction dir) {
    return dir == kToRoot ? lists.root : lists.leaf;
  }

  /// The last payload received on cd-r's channel (layer, bin, peer, dir);
  /// empty until the first one arrives.
  std::vector<real_t>& last_payload(int layer, int bin, part_t p, Direction dir) {
    const auto channel = (layer * config_.delay + bin) * comm_.size() + p;
    return last_payloads_[static_cast<std::size_t>(channel) * 2 + dir];
  }

  /// fn(p) for every other rank p, ascending.
  template <typename Fn>
  void for_each_peer(Fn&& fn) {
    for (part_t p = 0; p < comm_.size(); ++p)
      if (p != comm_.rank()) fn(p);
  }

  /// Halo payloads travel at config_.halo_precision (fp32/bf16/fp16);
  /// gradient AllReduce always stays fp32.
  void send_halo(part_t dest, int tag, std::vector<real_t> payload) {
    comm_.send(dest, tag, encode_halo(std::move(payload), config_.halo_precision));
  }
  std::vector<real_t> recv_halo(part_t source, int tag, std::size_t count) {
    return decode_halo(comm_.recv(source, tag), count, config_.halo_precision);
  }

  Communicator& comm_;
  const TrainConfig& config_;
  const LocalPartition& lp_;
  const HaloPlan& plan_;
  DenseMatrix features_;
  std::vector<int> labels_;
  std::vector<std::uint8_t> train_mask_, val_mask_, test_mask_;
  FullBatchSage pass_;
  // plan_ restricted to the training frontier's trees, in compact ids: the
  // output layer's halo in training.
  HaloPlan train_plan_;

  // cd-r's last payload received on each (layer, bin, peer, direction)
  // channel, at [((layer * delay + bin) * ranks + peer) * 2 + direction].
  std::vector<std::vector<real_t>> last_payloads_;

  int settle_epoch_;  // input_settle_epoch(config_)

  std::int64_t global_train_count_ = 0;
  int epoch_ = 0;  // drives the cd-r bin schedule
};

/// Mean of `field` over the epochs after the first `skip`.
double mean_after(const std::vector<DistEpochRecord>& epochs, int skip,
                  double DistEpochRecord::*field) {
  double sum = 0.0;
  int count = 0;
  for (std::size_t e = static_cast<std::size_t>(skip); e < epochs.size(); ++e) {
    sum += epochs[e].*field;
    ++count;
  }
  return count == 0 ? 0.0 : sum / count;
}

}  // namespace

double DistTrainResult::mean_epoch_seconds(int skip) const {
  return mean_after(epochs, skip, &DistEpochRecord::total_seconds);
}

double DistTrainResult::mean_local_agg_seconds(int skip) const {
  return mean_after(epochs, skip, &DistEpochRecord::local_agg_seconds);
}

double DistTrainResult::mean_remote_agg_seconds(int skip) const {
  return mean_after(epochs, skip, &DistEpochRecord::remote_agg_seconds);
}

double DistTrainResult::mean_mlp_seconds(int skip) const {
  return mean_after(epochs, skip, &DistEpochRecord::mlp_seconds);
}

double DistTrainResult::mean_backward_ap_seconds(int skip) const {
  return mean_after(epochs, skip, &DistEpochRecord::backward_ap_seconds);
}

DistTrainResult train_distributed(const Dataset& dataset, const PartitionedGraph& pg,
                                  const TrainConfig& config) {
  if (config.algorithm == Algorithm::kCdR && config.delay < 1)
    throw std::invalid_argument(
        "train_distributed: cd-r needs delay >= 1 (delay 0 is Algorithm::kCd0)");
  if (config.algorithm == Algorithm::kCdR && config.delay > kMaxBins)
    throw std::invalid_argument("train_distributed: cd-r needs delay <= " +
                                std::to_string(kMaxBins) + " (one halo tag per bin)");
  const int num_bins = config.algorithm == Algorithm::kCdR ? config.delay : 1;
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
      PassTimes pass;
      const double loss = trainer.train_epoch(e, pass);
      const double total = seconds_since(t0);

      // Record the slowest rank's phase times (the paper plots per-epoch
      // times of the whole machine, which the stragglers define).
      std::array<real_t, 5> times{static_cast<real_t>(pass.ap), static_cast<real_t>(pass.sync),
                                  static_cast<real_t>(pass.mlp),
                                  static_cast<real_t>(pass.backward_ap),
                                  static_cast<real_t>(total)};
      comm.allreduce_max(std::span<real_t>(times));
      if (comm.rank() == 0) {
        auto& rec = result.epochs[static_cast<std::size_t>(e)];
        rec.loss = loss;
        rec.local_agg_seconds = times[0];
        rec.remote_agg_seconds = times[1];
        rec.mlp_seconds = times[2];
        rec.backward_ap_seconds = times[3];
        rec.total_seconds = times[4];
      }
    }

    const auto acc = trainer.evaluate_all();
    const auto bytes = comm.allgather(static_cast<std::int64_t>(comm.stats().bytes_sent));
    const auto ar_bytes = comm.allgather(static_cast<std::int64_t>(comm.stats().allreduce_bytes));
    // Every rank has sent all it will: a payload left now was never received.
    if (const std::size_t left = comm.pending_messages(); left != 0)
      throw std::logic_error("train_distributed: rank " + std::to_string(comm.rank()) +
                             " ends with " + std::to_string(left) + " undelivered halo payloads");
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
