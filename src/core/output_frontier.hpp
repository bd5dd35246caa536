// The output frontier of a full-batch trainer: the rows the loss reads, and
// the adjacency restricted to them, built once per trainer like the constant
// layer-0 aggregate.
//
// Full-batch GraphSAGE computes every layer at every vertex, yet the loss
// reads only the training rows. So the last layer's AP, combine, Linear,
// loss and weight gradients run on the frontier's n_t compact rows:
//   - in()  keeps the frontier rows of each block of the trainer's forward
//     BlockedCsr (BlockedCsr::select_rows). A row's terms are the same and
//     are added block by block in the same order, so every kept row of the
//     AP is bitwise the full-graph row.
//   - out() keeps, in each block of the trainer's backward (transpose)
//     BlockedCsr, the entries into frontier rows, with the column renumbered
//     to the compact id (BlockedCsr::select_columns). Every dropped entry
//     would have added the gradient of a row the loss does not read, which
//     is exact +0; a sum that starts at +0 never holds −0, so dropping those
//     terms changes no bit of the full-height dH the layer below reads.
// The derived blocks are never re-blocked: they are rectangular, and
// CsrMatrix::column_blocks only takes square matrices.
//
// Every other layer, and evaluation's output layer, use the all-rows
// frontier: the identity row list over the trainer's own blocks, so each
// layer runs one code path whatever its row set.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/aggregate.hpp"
#include "util/matrix.hpp"

namespace distgnn {

class OutputFrontier {
 public:
  OutputFrontier() = default;

  /// Every row, over the given blocks and normalizer. They are referenced,
  /// not copied, and must outlive the frontier.
  static OutputFrontier all_rows(const BlockedCsr& in, const BlockedCsr& out,
                                 const DenseMatrix& inv_norm);

  /// The rows v with keep[v] != 0, ascending, with blocks derived from `in`
  /// (forward) and `out` (backward) and the normalizer's rows copied.
  static OutputFrontier select(const BlockedCsr& in, const BlockedCsr& out,
                               const DenseMatrix& inv_norm, std::span<const std::uint8_t> keep);

  std::size_t size() const { return rows_.size(); }
  /// rows()[i] is the local row that compact row i computes.
  std::span<const vid_t> rows() const { return rows_; }
  const BlockedCsr& in() const { return in_ref_ != nullptr ? *in_ref_ : in_; }
  const BlockedCsr& out() const { return out_ref_ != nullptr ? *out_ref_ : out_; }
  /// size() x 1: row i is 1/(deg+1) of rows()[i].
  ConstMatrixView inv_norm() const {
    return inv_norm_ref_ != nullptr ? inv_norm_ref_->cview() : inv_norm_.cview();
  }
  /// Entries of in(): the edges the output layer's AP reads.
  eid_t num_edges() const;

  /// For each of `num_rows` local rows, its compact id, or -1 off the frontier.
  std::vector<vid_t> compact_ids(vid_t num_rows) const;

  /// The values of `per_row` (one per local row) at rows(), in order.
  template <typename T>
  std::vector<T> gather(std::span<const T> per_row) const {
    std::vector<T> out;
    out.reserve(rows_.size());
    for (const vid_t v : rows_) out.push_back(per_row[static_cast<std::size_t>(v)]);
    return out;
  }

  /// combined[i] = (agg[i] + H[rows()[i]]) · inv_norm()[i]: the layer's
  /// Linear input from its compact aggregate; `combined` may alias `agg`.
  /// Each row i with slot[i] >= 0 is also written to row slot[i] of
  /// `copies` (an empty `slot` writes none).
  void combine(ConstMatrixView H, ConstMatrixView agg, MatrixView combined,
               std::span<const vid_t> slot = {}, MatrixView copies = {}) const;

  /// dH[rows()[i]] += dscaled[i] for each compact row i in `compact`: the
  /// self path of the backward over the rows it owns, after out() has
  /// written the neighbour path into the full-height dH.
  void add_self(std::span<const vid_t> compact, ConstMatrixView dscaled, MatrixView dH) const;

 private:
  std::vector<vid_t> rows_;
  BlockedCsr in_, out_;
  DenseMatrix inv_norm_;
  const BlockedCsr* in_ref_ = nullptr;
  const BlockedCsr* out_ref_ = nullptr;
  const DenseMatrix* inv_norm_ref_ = nullptr;
};

}  // namespace distgnn
