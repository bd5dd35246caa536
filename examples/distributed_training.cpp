// Distributed full-batch training across simulated sockets: partitions the
// graph with the Libra vertex-cut, builds the split-vertex halo plans and
// trains with one of the paper's three algorithms.
//
//   ./distributed_training [--ranks=4] [--algorithm=cd-r|cd-0|0c] [--delay=5]
//                          [--epochs=40] [--dataset=<registry name>]
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/distributed_trainer.hpp"
#include "graph/datasets.hpp"
#include "partition/libra.hpp"
#include "partition/partition_setup.hpp"
#include "partition/partition_stats.hpp"
#include "util/options.hpp"

using namespace distgnn;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int ranks = static_cast<int>(opts.get_int("ranks", 4));
  const std::string alg_name = opts.get("algorithm", "cd-r");

  // 1. Dataset: either a registry dataset (--dataset=ogbn-products-sim) or
  //    the default learnable SBM so accuracy means something.
  Dataset dataset;
  if (opts.has("dataset")) {
    dataset = make_dataset(opts.get("dataset", ""), opts.get_double("scale", 0.0625));
  } else {
    LearnableSbmParams p;
    p.num_vertices = opts.get_int("vertices", 4096);
    p.num_classes = 8;
    p.avg_degree = 16;
    p.feature_dim = 32;
    dataset = make_learnable_sbm(p);
  }
  std::printf("dataset %s: |V|=%lld |E|=%lld\n", dataset.name.c_str(),
              static_cast<long long>(dataset.num_vertices()),
              static_cast<long long>(dataset.num_edges()));

  // 2. Libra vertex-cut partitioning + split-vertex setup (§5.1-5.2).
  const EdgePartition ep = partition_libra(dataset.graph.coo(), ranks);
  const PartitionQuality quality = evaluate_partition(dataset.graph.coo(), ep);
  std::printf("partitions: %d  replication factor %.2f  edge balance %.3f  split vertices %lld\n",
              ranks, quality.replication_factor, quality.edge_balance,
              static_cast<long long>(quality.split_vertices));
  const PartitionedGraph pg = build_partitions(dataset.graph.coo(), ep, /*seed=*/1);

  // 3. Pick the algorithm (§5.3) and train.
  TrainConfig config;
  config.num_layers = 2;
  config.hidden_dim = 32;
  config.lr = opts.get_double("lr", 0.1);
  config.epochs = static_cast<int>(opts.get_int("epochs", 40));
  config.delay = static_cast<int>(opts.get_int("delay", 5));
  if (alg_name == "0c") config.algorithm = Algorithm::k0c;
  else if (alg_name == "cd-0") config.algorithm = Algorithm::kCd0;
  else config.algorithm = Algorithm::kCdR;
  const std::string precision = opts.get("precision", "fp32");
  if (precision == "bf16") config.halo_precision = HaloPrecision::kBf16;
  else if (precision == "fp16") config.halo_precision = HaloPrecision::kFp16;

  std::printf("training %s on %d simulated sockets (delay r=%d)...\n",
              to_string(config.algorithm).c_str(), ranks, config.delay);
  DistTrainResult result;
  try {
    result = train_distributed(dataset, pg, config);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  for (std::size_t e = 0; e < result.epochs.size(); e += 10)
    std::printf("epoch %3zu  loss %.4f  %.2f ms/epoch (LAT %.2f ms, RAT %.2f ms)\n", e,
                result.epochs[e].loss, result.epochs[e].total_seconds * 1e3,
                result.epochs[e].local_agg_seconds * 1e3,
                result.epochs[e].remote_agg_seconds * 1e3);

  std::printf("final: test accuracy %.2f%%  mean epoch %.2f ms  halo bytes %.2f MB  "
              "allreduce bytes %.2f MB\n",
              100 * result.test_accuracy, result.mean_epoch_seconds(2) * 1e3,
              static_cast<double>(result.total_bytes_sent) / 1e6,
              static_cast<double>(result.allreduce_bytes) / 1e6);
  return 0;
}
