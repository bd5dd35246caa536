// Training configuration shared by the full-batch trainers, and what one
// single-process epoch reports.
#pragma once

#include <cstdint>
#include <string>

#include "comm/compression.hpp"
#include "kernels/aggregate.hpp"

namespace distgnn {

/// The three distributed algorithms of §5.3.
enum class Algorithm {
  k0c,    // communication-free: local partial aggregates only (roofline)
  kCd0,   // blocking sync of all split-vertices every epoch (exact)
  kCdR,   // delayed remote partial aggregates with bin delay r (DRPA)
};

std::string to_string(Algorithm a);

/// Which of cd-r's channels a rank applies each epoch. A channel is one
/// (layer, bin, peer, direction) of Alg. 4's exchange, and a rank keeps the
/// last payload it received on each. kLiteral applies only the payloads that
/// arrived this epoch, those of bin e mod r, as the paper's Alg. 4 does;
/// every other split vertex keeps its local partial. kCache re-applies the
/// last payload of every channel, so each split vertex sees its freshest
/// known remote data every epoch. kCache is the default, and the ablation
/// bench compares the two. cd-0 and evaluation have no stale channel: they
/// run at lag 0, where both policies are the same.
enum class StalenessPolicy { kCache, kLiteral };

enum class ApMode {
  kBaseline,   // Alg. 1 (the "DGL 0.5.3" bar of Fig. 2)
  kOptimized,  // Alg. 2 + Alg. 3 with auto block count
};

struct TrainConfig {
  int num_layers = 3;       // paper: 2 for Reddit, 3 otherwise
  int hidden_dim = 256;     // paper: 16 for Reddit, 256 otherwise
  double lr = 0.01;
  double weight_decay = 5e-4;
  double momentum = 0.0;
  int epochs = 100;
  std::uint64_t seed = 1;

  ApMode ap_mode = ApMode::kOptimized;
  /// 0 = choose with auto_num_blocks().
  int num_blocks = 0;

  Algorithm algorithm = Algorithm::kCd0;
  /// DRPA delay r; used when algorithm == kCdR (the paper runs r = 5).
  int delay = 5;
  StalenessPolicy staleness = StalenessPolicy::kCache;

  /// OpenMP threads each rank may use; 0 = divide hardware threads evenly.
  int threads_per_rank = 0;

  /// Wire precision of the halo partial aggregates (§7 future work:
  /// FP16/BF16 halve the communication volume at a small accuracy cost).
  /// Gradient AllReduce always stays FP32.
  HaloPrecision halo_precision = HaloPrecision::kFp32;
};

/// One epoch of SingleSocketTrainer or RgcnTrainer, in wall seconds.
struct EpochStats {
  double loss = 0.0;
  double total_seconds = 0.0;
  double ap_seconds = 0.0;   // forward + backward aggregation time
  double mlp_seconds = 0.0;  // combine/linear/activation/loss/optimizer time
};

}  // namespace distgnn
