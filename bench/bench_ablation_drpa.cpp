// Ablation of the DRPA design choices (§5.3 / §6.3 "Accuracy"):
//   (a) delay r sweep — the paper reports no accuracy benefit below r=5 and
//       degradation at r=10 from increasingly stale aggregates;
//   (b) staleness policy — Alg. 4's literal "overwrite one bin per epoch"
//       vs the cached "reapply the last received remote contribution every
//       epoch" interpretation (see StalenessPolicy in core/config.hpp).
#include <cstdio>

#include "bench_common.hpp"
#include "core/distributed_trainer.hpp"
#include "partition/libra.hpp"
#include "partition/partition_setup.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace distgnn;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const int epochs = static_cast<int>(opts.get_int("epochs", 60));
  const int ranks = static_cast<int>(opts.get_int("ranks", 4));

  bench::print_header("DRPA ablation: delay r and staleness policy",
                      "§6.3 accuracy discussion (r < 5 no gain, r = 10 degrades)");

  LearnableSbmParams p;
  p.num_vertices = opts.get_int("vertices", 4096);
  p.num_classes = 8;
  p.avg_degree = 16;
  p.feature_dim = 32;
  p.feature_noise = 1.2f;
  p.seed = 23;
  const Dataset ds = make_learnable_sbm(p);
  const PartitionedGraph pg =
      build_partitions(ds.graph.coo(), partition_libra(ds.graph.coo(), ranks), 1);

  TrainConfig cfg;
  cfg.num_layers = 2;
  cfg.hidden_dim = 32;
  cfg.lr = 0.1;
  cfg.epochs = epochs;

  // (a) delay sweep. r = 0 is cd-0: Alg. 4 with lag 0 (fresh, blocking).
  TextTable delay_table({"delay r", "algorithm", "test acc (%)", "final loss",
                         "halo MB/epoch"});
  for (const int r : {0, 1, 2, 5, 10}) {
    cfg.algorithm = r == 0 ? Algorithm::kCd0 : Algorithm::kCdR;
    cfg.delay = r;
    cfg.staleness = StalenessPolicy::kCache;
    const DistTrainResult result = train_distributed(ds, pg, cfg);
    delay_table.add_row({TextTable::fmt_int(r), r == 0 ? "cd-0" : "cd-" + std::to_string(r),
                         TextTable::fmt(100 * result.test_accuracy, 2),
                         TextTable::fmt(result.epochs.back().loss, 4),
                         TextTable::fmt(static_cast<double>(result.total_bytes_sent) / 1e6 / epochs, 3)});
  }
  std::printf("%s", delay_table.render("(a) Delay sweep (cached staleness)").c_str());

  // (b) staleness policy at r = 5.
  TextTable policy_table({"policy", "test acc (%)", "final loss"});
  cfg.algorithm = Algorithm::kCdR;
  cfg.delay = 5;
  for (const StalenessPolicy policy : {StalenessPolicy::kCache, StalenessPolicy::kLiteral}) {
    cfg.staleness = policy;
    const DistTrainResult result = train_distributed(ds, pg, cfg);
    policy_table.add_row({policy == StalenessPolicy::kCache ? "cache (reapply stale remote)"
                                                            : "literal (Alg. 4 overwrite)",
                          TextTable::fmt(100 * result.test_accuracy, 2),
                          TextTable::fmt(result.epochs.back().loss, 4)});
  }
  std::printf("%s", policy_table.render("(b) Staleness policy at r=5").c_str());

  std::printf("\nPaper reference: accuracy flat for r in [0,5], degraded at r=10; halo\n"
              "volume per epoch shrinks ~1/r. The cached policy dominates the literal\n"
              "one because split vertices always see *some* remote contribution.\n");
  return 0;
}
