#include "core/output_frontier.hpp"

#include <cstring>
#include <numeric>
#include <stdexcept>

#include "nn/layer_rows.hpp"

namespace distgnn {

OutputFrontier OutputFrontier::all_rows(const BlockedCsr& in, const BlockedCsr& out,
                                        const DenseMatrix& inv_norm) {
  OutputFrontier f;
  f.rows_.resize(inv_norm.rows());
  std::iota(f.rows_.begin(), f.rows_.end(), vid_t{0});
  f.in_ref_ = &in;
  f.out_ref_ = &out;
  f.inv_norm_ref_ = &inv_norm;
  return f;
}

OutputFrontier OutputFrontier::select(const BlockedCsr& in, const BlockedCsr& out,
                                      const DenseMatrix& inv_norm,
                                      std::span<const std::uint8_t> keep) {
  if (keep.size() != inv_norm.rows())
    throw std::invalid_argument("OutputFrontier::select: one keep flag per row expected");
  OutputFrontier f;
  for (std::size_t v = 0; v < keep.size(); ++v)
    if (keep[v]) f.rows_.push_back(static_cast<vid_t>(v));
  f.in_ = in.select_rows(f.rows_);
  f.out_ = out.select_columns(f.compact_ids(static_cast<vid_t>(keep.size())));
  f.inv_norm_.resize_discard(f.rows_.size(), 1);
  for (std::size_t i = 0; i < f.rows_.size(); ++i)
    f.inv_norm_.at(i, 0) = inv_norm.at(static_cast<std::size_t>(f.rows_[i]), 0);
  return f;
}

eid_t OutputFrontier::num_edges() const {
  eid_t total = 0;
  for (const CsrMatrix& b : in().blocks()) total += b.num_entries();
  return total;
}

std::vector<vid_t> OutputFrontier::compact_ids(vid_t num_rows) const {
  std::vector<vid_t> ids(static_cast<std::size_t>(num_rows), -1);
  for (std::size_t i = 0; i < rows_.size(); ++i)
    ids[static_cast<std::size_t>(rows_[i])] = static_cast<vid_t>(i);
  return ids;
}

void OutputFrontier::combine(ConstMatrixView H, ConstMatrixView agg, MatrixView combined,
                             std::span<const vid_t> slot, MatrixView copies) const {
  const ConstMatrixView inv = inv_norm();
  if (agg.rows != size() || combined.rows != size() || agg.cols != H.cols ||
      combined.cols != H.cols || (!slot.empty() && (slot.size() != size() || copies.cols != H.cols)))
    throw std::invalid_argument("OutputFrontier::combine: shape mismatch");
  const std::size_t n = size(), d = H.cols;
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    rows::sage_combine(agg.row(i), H.row(static_cast<std::size_t>(rows_[i])), inv.at(i, 0), d,
                       combined.row(i));
    if (!slot.empty() && slot[i] >= 0)
      std::memcpy(copies.row(static_cast<std::size_t>(slot[i])), combined.row(i),
                  d * sizeof(real_t));
  }
}

void OutputFrontier::add_self(std::span<const vid_t> compact, ConstMatrixView dscaled,
                              MatrixView dH) const {
  if (dscaled.rows != size() || dscaled.cols != dH.cols)
    throw std::invalid_argument("OutputFrontier::add_self: shape mismatch");
  const std::size_t n = compact.size(), d = dH.cols;
#pragma omp parallel for schedule(static)
  for (std::size_t k = 0; k < n; ++k) {
    const auto i = static_cast<std::size_t>(compact[k]);
    real_t* dst = dH.row(static_cast<std::size_t>(rows_[i]));
    const real_t* src = dscaled.row(i);
#pragma omp simd
    for (std::size_t j = 0; j < d; ++j) dst[j] += src[j];
  }
}

}  // namespace distgnn
