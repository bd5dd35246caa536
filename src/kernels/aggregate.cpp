#include "kernels/aggregate.hpp"

#include "util/parallel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "kernels/microkernel.hpp"

namespace distgnn {

namespace {

// Destination rows handed to a thread at a time under dynamic scheduling;
// read only by a pragma, which a serial build ignores.
[[maybe_unused]] constexpr int kChunkRows = 16;

void check_shapes(const CsrMatrix& A, ConstMatrixView fV, ConstMatrixView fE, MatrixView fO,
                  BinaryOp binary) {
  if (fO.rows != static_cast<std::size_t>(A.num_rows()))
    throw std::invalid_argument("aggregate: fO row count must equal CSR row count");
  if (uses_lhs(binary) && fV.cols != fO.cols)
    throw std::invalid_argument("aggregate: fV and fO feature widths differ");
  if (uses_rhs(binary)) {
    if (fE.empty()) throw std::invalid_argument("aggregate: operator reads fE but fE is empty");
    if (fE.cols != fO.cols)
      throw std::invalid_argument("aggregate: fE and fO feature widths differ");
  }
}

// Shared element-wise scalar loop used by the baseline and by the optimized
// path when the micro-kernel is disabled (Fig. 4's "DS"/"Block" bars).
void row_scalar(BinaryOp binary, ReduceOp reduce, const CsrMatrix& A, vid_t v, ConstMatrixView fV,
                ConstMatrixView fE, MatrixView fO) {
  const auto nbrs = A.neighbors(v);
  // The reference kernel is the scalar per-edge loop of Alg. 1: fO[v] is
  // re-read and re-written for every incident edge, no SIMD.
  row_kernel_reference(binary, reduce, nbrs.data(), A.edge_ids(v).data(), nbrs.size(),
                       uses_lhs(binary) ? fV.data : nullptr,
                       uses_rhs(binary) ? fE.data : nullptr, fO.cols,
                       fO.row(static_cast<std::size_t>(v)));
}

void process_block(const CsrMatrix& block, ConstMatrixView fV, ConstMatrixView fE, MatrixView fO,
                   const ApConfig& cfg, RowKernelFn kernel) {
  const vid_t n = block.num_rows();
  const real_t* fv_data = uses_lhs(cfg.binary) ? fV.data : nullptr;
  const real_t* fe_data = uses_rhs(cfg.binary) ? fE.data : nullptr;
  const std::size_t d = fO.cols;

  if (cfg.dynamic_schedule) {
#pragma omp parallel for schedule(dynamic, kChunkRows)
    for (vid_t v = 0; v < n; ++v) {
      const auto nbrs = block.neighbors(v);
      if (nbrs.empty()) continue;
      if (kernel != nullptr) {
        kernel(nbrs.data(), block.edge_ids(v).data(), nbrs.size(), fv_data, fe_data, d,
               fO.row(static_cast<std::size_t>(v)));
      } else {
        row_scalar(cfg.binary, cfg.reduce, block, v, fV, fE, fO);
      }
    }
  } else {
#pragma omp parallel for schedule(static)
    for (vid_t v = 0; v < n; ++v) {
      const auto nbrs = block.neighbors(v);
      if (nbrs.empty()) continue;
      if (kernel != nullptr) {
        kernel(nbrs.data(), block.edge_ids(v).data(), nbrs.size(), fv_data, fe_data, d,
               fO.row(static_cast<std::size_t>(v)));
      } else {
        row_scalar(cfg.binary, cfg.reduce, block, v, fV, fE, fO);
      }
    }
  }
}

}  // namespace

void aggregate_baseline(const CsrMatrix& A, ConstMatrixView fV, ConstMatrixView fE, MatrixView fO,
                        BinaryOp binary, ReduceOp reduce) {
  check_shapes(A, fV, fE, fO, binary);
  const vid_t n = A.num_rows();
// Alg. 1: static destination-parallel loop, no blocking, scalar inner loop
// that re-reads and re-writes fO[v] for every edge.
#pragma omp parallel for schedule(static)
  for (vid_t v = 0; v < n; ++v) row_scalar(binary, reduce, A, v, fV, fE, fO);
}

BlockedCsr::BlockedCsr(const CsrMatrix& A, int num_blocks) {
  if (num_blocks < 1) throw std::invalid_argument("BlockedCsr: num_blocks must be >= 1");
  blocks_ = A.column_blocks(num_blocks);
}

BlockedCsr BlockedCsr::select_rows(std::span<const vid_t> rows) const {
  std::vector<CsrMatrix> out;
  out.reserve(blocks_.size());
  for (const CsrMatrix& b : blocks_) out.push_back(b.select_rows(rows));
  return BlockedCsr(std::move(out));
}

BlockedCsr BlockedCsr::select_columns(std::span<const vid_t> column_map) const {
  std::vector<CsrMatrix> out;
  out.reserve(blocks_.size());
  for (const CsrMatrix& b : blocks_) out.push_back(b.select_columns(column_map));
  return BlockedCsr(std::move(out));
}

void aggregate_prepartitioned(const BlockedCsr& blocks, ConstMatrixView fV, ConstMatrixView fE,
                              MatrixView fO, const ApConfig& cfg) {
  if (blocks.num_blocks() == 0) return;
  check_shapes(blocks.block(0), fV, fE, fO, cfg.binary);
  const RowKernelFn kernel =
      cfg.use_microkernel ? lookup_row_kernel(cfg.binary, cfg.reduce) : nullptr;
  for (int b = 0; b < blocks.num_blocks(); ++b)
    process_block(blocks.block(b), fV, fE, fO, cfg, kernel);
}

void aggregate(const CsrMatrix& A, ConstMatrixView fV, ConstMatrixView fE, MatrixView fO,
               const ApConfig& cfg) {
  check_shapes(A, fV, fE, fO, cfg.binary);
  const RowKernelFn kernel =
      cfg.use_microkernel ? lookup_row_kernel(cfg.binary, cfg.reduce) : nullptr;
  if (cfg.num_blocks <= 1) {
    process_block(A, fV, fE, fO, cfg, kernel);
    return;
  }
  const BlockedCsr blocks(A, cfg.num_blocks);
  aggregate_prepartitioned(blocks, fV, fE, fO, cfg);
}

int auto_num_blocks(vid_t num_vertices, std::size_t feature_dim, std::size_t cache_bytes) {
  const std::size_t fv_bytes = static_cast<std::size_t>(num_vertices) * feature_dim * sizeof(real_t);
  // Target: one block of fV occupies about half the cache, leaving room for
  // the fO rows in flight.
  const std::size_t budget = std::max<std::size_t>(1, cache_bytes / 2);
  int nb = static_cast<int>((fv_bytes + budget - 1) / budget);
  return std::clamp(nb, 1, 64);
}

}  // namespace distgnn
