// Training workloads: full-batch GraphSAGE (2 layers, hidden 32) on
// proteins-sim at scale 1, single-worker (train-1s, 4 OpenMP threads) and
// 4-rank cd-5 (train-4r, 1 thread per rank). The two share dataset, model,
// seed and core count, so their epoch times compare directly.
#include <cmath>
#include <optional>

#include "core/distributed_trainer.hpp"
#include "core/single_socket_trainer.hpp"
#include "ledger.hpp"
#include "partition/halo_plan.hpp"
#include "partition/libra.hpp"
#include "partition/partition_setup.hpp"
#include "partition/partition_stats.hpp"
#include "util/parallel.hpp"

namespace distgnn::ledger {
namespace {

// Measured epochs per second of --seconds: fixed constants (a little under
// one --seconds of work on the 4-core host), so both commits of a
// comparison run identical epoch counts and their loss_final values compare.
constexpr double kEpochsPerSecond1s = 4.0;
constexpr double kEpochsPerSecond4r = 2.0;
constexpr int kRanks = kThreads;
constexpr int kDelay = 5;  // cd-5, as in the paper

TrainConfig train_config(std::uint64_t seed) {
  TrainConfig config;
  config.num_layers = 2;
  config.hidden_dim = 32;
  config.seed = derive_seed(seed, /*stream=*/3);
  config.ap_mode = ApMode::kOptimized;
  return config;
}

int measured_epochs(const RunSpec& spec, double per_second) {
  return std::max(3, static_cast<int>(std::lround(spec.seconds * per_second)));
}

/// End-to-end metrics shared by both training workloads; the "operation"
/// is one epoch.
void report_epochs(Report& report, const std::vector<double>& setup,
                   const std::vector<double>& epoch_seconds, double loss_final) {
  report.metric("setup_s", median(setup), "s");
  report_timing(report, epoch_seconds.size(), [&](double q) { return quantile(epoch_seconds, q); });
  report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
  report.metric("nn.loss_final", loss_final, "nats");
}

}  // namespace

void run_train_1s(const RunSpec& spec, Report& report) {
  par::set_num_threads(kThreads);
  const TrainConfig config = train_config(spec.seed);

  std::optional<Dataset> dataset;
  std::optional<SingleSocketTrainer> trainer;  // references *dataset
  std::vector<double> setup, graph_build;
  for (int rep = 0; rep < spec.setup_reps(); ++rep) {
    trainer.reset();
    dataset.reset();
    const auto t0 = Clock::now();
    graph_build.push_back(report.spans.time(
        "dataset build", [&] { dataset.emplace(build_dataset(spec.seed, 1.0)); }));
    report.spans.time("construct", [&] { trainer.emplace(*dataset, config); });
    setup.push_back(seconds_since(t0));
  }

  const int measured = measured_epochs(spec, kEpochsPerSecond1s);
  std::uint64_t non_finite = 0;
  std::vector<double> epoch_seconds, ap, mlp;
  double loss = 0;
  // Epoch 0 is the warm-up: it first-touches every activation buffer.
  for (int e = 0; e <= measured; ++e) {
    EpochStats stats;
    const double seconds = report.spans.time("train_epoch " + std::to_string(e),
                                             [&] { stats = trainer->train_epoch(); });
    if (!std::isfinite(stats.loss)) ++non_finite;
    loss = stats.loss;
    if (e == 0) continue;
    epoch_seconds.push_back(seconds);
    ap.push_back(stats.ap_seconds);
    mlp.push_back(stats.mlp_seconds);
  }

  report.probe("loss_finite", non_finite == 0);
  report.count(static_cast<std::uint64_t>(measured) + 1, non_finite);
  report_epochs(report, setup, epoch_seconds, loss);
  report.metric("graph.build_s", median(graph_build), "s");
  report.metric("kernels.ap_s", median(ap), "s");
  report.metric("nn.mlp_s", median(mlp), "s");
  if (spec.trace) measure_kernel_layers(*dataset, spec, report);
}

void run_train_4r(const RunSpec& spec, Report& report) {
  TrainConfig config = train_config(spec.seed);
  config.algorithm = Algorithm::kCdR;
  config.delay = kDelay;
  config.staleness = StalenessPolicy::kCache;
  config.threads_per_rank = 1;
  // The first 2r epochs run before any delayed partial aggregate has
  // matured; the paper skips them, and so does the ledger.
  const int skip = 2 * kDelay;
  const int measured = measured_epochs(spec, kEpochsPerSecond4r);
  config.epochs = skip + measured;

  std::optional<Dataset> dataset;
  EdgePartition partition;
  PartitionedGraph pg;
  std::vector<double> setup, graph_build, libra, part_setup;
  for (int rep = 0; rep < spec.setup_reps(); ++rep) {
    pg = {};
    dataset.reset();
    const auto t0 = Clock::now();
    graph_build.push_back(report.spans.time(
        "dataset build", [&] { dataset.emplace(build_dataset(spec.seed, 1.0)); }));
    libra.push_back(report.spans.time("partition_libra", [&] {
      partition = partition_libra(dataset->graph.coo(), kRanks, derive_seed(spec.seed, 4));
    }));
    part_setup.push_back(report.spans.time("build_partitions", [&] {
      pg = build_partitions(dataset->graph.coo(), partition, derive_seed(spec.seed, 5));
      (void)build_halo_plans(pg, kDelay);
    }));
    setup.push_back(seconds_since(t0));
  }

  DistTrainResult result;
  report.spans.time("train_distributed",
                    [&] { result = train_distributed(*dataset, pg, config); });

  std::uint64_t non_finite = 0;
  std::vector<double> epoch_seconds, lat, rat;
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const DistEpochRecord& rec = result.epochs[e];
    if (!std::isfinite(rec.loss)) ++non_finite;
    if (static_cast<int>(e) < skip) continue;
    epoch_seconds.push_back(rec.total_seconds);
    lat.push_back(rec.local_agg_seconds);
    rat.push_back(rec.remote_agg_seconds);
  }

  report.probe("loss_finite", non_finite == 0 && !result.epochs.empty());
  report.count(result.epochs.size(), non_finite);
  report_epochs(report, setup, epoch_seconds, result.epochs.back().loss);
  report.metric("graph.build_s", median(graph_build), "s");
  report.metric("partition.libra_s", median(libra), "s");
  report.metric("partition.setup_s", median(part_setup), "s");
  report.metric("partition.replication_factor",
                evaluate_partition(dataset->graph.coo(), partition).replication_factor, "ratio");
  report.metric("core.lat_s", median(lat), "s");
  report.metric("core.rat_s", median(rat), "s");
  constexpr double kMiB = 1024.0 * 1024.0;
  const auto epochs = static_cast<double>(config.epochs);
  report.metric("comm.halo_mb_per_epoch",
                static_cast<double>(result.total_bytes_sent) / epochs / kMiB, "MiB");
  report.metric("comm.allreduce_mb_per_epoch",
                static_cast<double>(result.allreduce_bytes) / epochs / kMiB, "MiB");
  if (spec.trace) measure_kernel_layers(*dataset, spec, report);
}

}  // namespace distgnn::ledger
