// The Aggregation Primitive (AP): fO[v] ⊕= fV[u] ⊗ fE[e_uv] over all in-edges.
//
// Three implementations mirror the paper's progression:
//   * aggregate_baseline — Alg. 1, the unoptimized DGL loop (destination-
//     parallel, static schedule, destination row rewritten per edge).
//   * aggregate          — Alg. 2 + Alg. 3 with each optimization toggleable
//     (dynamic scheduling, cache blocking, loop-reordered micro-kernels), so
//     the Figure 4 ablation can switch them on one at a time.
//   * BlockedCsr + aggregate_prepartitioned — the production path: the
//     per-block CSRs are built once and reused every epoch.
//
// All variants reduce *into* fO; callers seed fO with the reduction's
// identity (0 for sum, -inf for max, +inf for min) exactly as DGL does.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "kernels/ops.hpp"
#include "util/matrix.hpp"

namespace distgnn {

struct ApConfig {
  BinaryOp binary = BinaryOp::kCopyLhs;
  ReduceOp reduce = ReduceOp::kSum;
  /// Number of source-vertex cache blocks (Alg. 2); 1 disables blocking.
  int num_blocks = 1;
  /// Dynamic OpenMP scheduling over chunks of 16 contiguous destination rows.
  bool dynamic_schedule = true;
  /// Loop-reordered vectorized micro-kernel (Alg. 3); false falls back to the
  /// baseline inner loop (still affected by blocking/scheduling).
  bool use_microkernel = true;
};

/// Alg. 1 — faithful baseline. fE may be empty iff the op ignores the rhs.
void aggregate_baseline(const CsrMatrix& A, ConstMatrixView fV, ConstMatrixView fE, MatrixView fO,
                        BinaryOp binary, ReduceOp reduce);

/// Optimized AP; builds block CSRs internally when cfg.num_blocks > 1.
void aggregate(const CsrMatrix& A, ConstMatrixView fV, ConstMatrixView fE, MatrixView fO,
               const ApConfig& cfg);

/// Pre-partitioned column blocks of a CSR, reusable across epochs.
class BlockedCsr {
 public:
  BlockedCsr() = default;
  BlockedCsr(const CsrMatrix& A, int num_blocks);

  /// Blocks derived entry for entry from these (CsrMatrix::select_rows /
  /// select_columns on each block), never re-blocked: an AP over the result
  /// adds every kept row's terms block by block in the same order as an AP
  /// over this matrix, so the kept rows come out bitwise equal.
  BlockedCsr select_rows(std::span<const vid_t> rows) const;
  BlockedCsr select_columns(std::span<const vid_t> column_map) const;

  int num_blocks() const { return static_cast<int>(blocks_.size()); }
  vid_t num_rows() const { return blocks_.empty() ? 0 : blocks_.front().num_rows(); }
  const CsrMatrix& block(int b) const { return blocks_[static_cast<std::size_t>(b)]; }
  std::span<const CsrMatrix> blocks() const { return blocks_; }

 private:
  explicit BlockedCsr(std::vector<CsrMatrix> blocks) : blocks_(std::move(blocks)) {}

  std::vector<CsrMatrix> blocks_;
};

/// Optimized AP over pre-built blocks (the per-epoch hot path).
void aggregate_prepartitioned(const BlockedCsr& blocks, ConstMatrixView fV, ConstMatrixView fE,
                              MatrixView fO, const ApConfig& cfg);

/// Picks a block count so one block of fV approximately fits in
/// `cache_bytes` (default: a 28-core socket's ~39 MB LLC), clamped to
/// [1, 64]. The heuristic the paper tunes by hand in Table 3.
int auto_num_blocks(vid_t num_vertices, std::size_t feature_dim,
                    std::size_t cache_bytes = 39u << 20);

}  // namespace distgnn
