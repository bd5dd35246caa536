// Compressed sparse row adjacency. Following the paper's convention (Alg. 1),
// a CSR row is a *destination* vertex and its column entries are the source
// vertices with an edge incident on it, so `A[v]` enumerates the in-
// neighbourhood that the Aggregation Primitive pulls from. Each entry also
// carries the original edge id so edge features (fE) can be gathered.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/coo.hpp"
#include "util/types.hpp"

namespace distgnn {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds the in-adjacency CSR (rows = destinations). Stable: within a row,
  /// neighbours appear in edge-list order, which keeps results reproducible.
  static CsrMatrix from_coo(const EdgeList& coo);

  /// Builds the out-adjacency CSR (rows = sources) — the transpose, used by
  /// backpropagation through the aggregation and by neighbour sampling.
  static CsrMatrix transpose_from_coo(const EdgeList& coo);

  vid_t num_rows() const { return static_cast<vid_t>(row_ptr_.size()) - 1; }
  eid_t num_entries() const { return static_cast<eid_t>(col_idx_.size()); }

  /// In-neighbours (column indices) of row v.
  std::span<const vid_t> neighbors(vid_t v) const {
    return {col_idx_.data() + row_ptr_[v], static_cast<std::size_t>(row_ptr_[v + 1] - row_ptr_[v])};
  }

  /// Edge ids aligned with neighbors(v).
  std::span<const eid_t> edge_ids(vid_t v) const {
    return {edge_id_.data() + row_ptr_[v], static_cast<std::size_t>(row_ptr_[v + 1] - row_ptr_[v])};
  }

  eid_t degree(vid_t v) const { return row_ptr_[v + 1] - row_ptr_[v]; }

  const std::vector<eid_t>& row_ptr() const { return row_ptr_; }
  const std::vector<vid_t>& col_idx() const { return col_idx_; }
  const std::vector<eid_t>& edge_id() const { return edge_id_; }

  /// Splits the *column* (source-vertex) range into `num_blocks` contiguous
  /// blocks and returns one CSR per block, implementing the cache-blocking
  /// preprocessing of Alg. 2. Row counts are preserved; each block holds only
  /// the entries whose source vertex falls in [b*B, (b+1)*B). The matrix must
  /// be square: a column outside [0, num_rows()) throws std::out_of_range.
  std::vector<CsrMatrix> column_blocks(int num_blocks) const;

  /// Row i of the result is row rows[i] of this matrix, entries in their
  /// original order; the column space is unchanged, so the result is
  /// rows.size() x (this matrix's column count).
  CsrMatrix select_rows(std::span<const vid_t> rows) const;

  /// Keeps the entries whose column c has column_map[c] >= 0, renumbered to
  /// column_map[c], in their original order; every row is kept.
  CsrMatrix select_columns(std::span<const vid_t> column_map) const;

  /// Direct construction from raw arrays (row_ptr has num_rows+1 entries).
  /// Throws std::invalid_argument unless row_ptr is non-empty, starts at 0,
  /// never decreases and ends at the entry count, and col_idx and edge_id
  /// have the same size. Columns are not range-checked here: a row or column
  /// selection is rectangular.
  static CsrMatrix from_raw(std::vector<eid_t> row_ptr, std::vector<vid_t> col_idx,
                            std::vector<eid_t> edge_id);

 private:
  std::vector<eid_t> row_ptr_;  // |rows|+1
  std::vector<vid_t> col_idx_;  // |entries|
  std::vector<eid_t> edge_id_;  // |entries|, original edge ids
};

}  // namespace distgnn
