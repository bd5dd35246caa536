#include "graph/csr.hpp"

#include <stdexcept>

namespace distgnn {

namespace {

// Counting-sort style CSR build keyed on `key(edge)`.
template <typename KeyFn, typename ValFn>
CsrMatrix build(const EdgeList& coo, KeyFn key, ValFn val) {
  const vid_t n = coo.num_vertices;
  std::vector<eid_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : coo.edges) {
    if (e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n)
      throw std::out_of_range("CsrMatrix: edge endpoint outside [0, num_vertices)");
    ++row_ptr[static_cast<std::size_t>(key(e)) + 1];
  }
  for (vid_t v = 0; v < n; ++v) row_ptr[v + 1] += row_ptr[v];

  std::vector<vid_t> col_idx(coo.edges.size());
  std::vector<eid_t> edge_id(coo.edges.size());
  std::vector<eid_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (eid_t i = 0; i < coo.num_edges(); ++i) {
    const Edge& e = coo.edges[static_cast<std::size_t>(i)];
    const eid_t slot = cursor[static_cast<std::size_t>(key(e))]++;
    col_idx[static_cast<std::size_t>(slot)] = val(e);
    edge_id[static_cast<std::size_t>(slot)] = i;
  }
  return CsrMatrix::from_raw(std::move(row_ptr), std::move(col_idx), std::move(edge_id));
}

}  // namespace

CsrMatrix CsrMatrix::from_coo(const EdgeList& coo) {
  return build(coo, [](const Edge& e) { return e.dst; }, [](const Edge& e) { return e.src; });
}

CsrMatrix CsrMatrix::transpose_from_coo(const EdgeList& coo) {
  return build(coo, [](const Edge& e) { return e.src; }, [](const Edge& e) { return e.dst; });
}

CsrMatrix CsrMatrix::from_raw(std::vector<eid_t> row_ptr, std::vector<vid_t> col_idx,
                              std::vector<eid_t> edge_id) {
  if (row_ptr.empty()) throw std::invalid_argument("CsrMatrix::from_raw: row_ptr is empty");
  if (col_idx.size() != edge_id.size())
    throw std::invalid_argument("CsrMatrix::from_raw: col_idx and edge_id sizes differ");
  if (row_ptr.front() != 0)
    throw std::invalid_argument("CsrMatrix::from_raw: row_ptr does not start at 0");
  for (std::size_t r = 1; r < row_ptr.size(); ++r)
    if (row_ptr[r] < row_ptr[r - 1])
      throw std::invalid_argument("CsrMatrix::from_raw: row_ptr decreases");
  if (static_cast<std::size_t>(row_ptr.back()) != col_idx.size())
    throw std::invalid_argument("CsrMatrix::from_raw: row_ptr does not end at the entry count");
  CsrMatrix m;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.edge_id_ = std::move(edge_id);
  return m;
}

std::vector<CsrMatrix> CsrMatrix::column_blocks(int num_blocks) const {
  if (num_blocks < 1) throw std::invalid_argument("CsrMatrix::column_blocks: num_blocks < 1");
  const vid_t n = num_rows();
  const vid_t block_size = (n + num_blocks - 1) / num_blocks;
  const auto block_of = [&](vid_t u) { return static_cast<int>(u / block_size); };
  for (const vid_t u : col_idx_)
    if (u < 0 || u >= n)
      throw std::out_of_range("CsrMatrix::column_blocks: column outside [0, num_rows())");

  // Per-block entry counts per row, then prefix sums, then scatter.
  std::vector<std::vector<eid_t>> row_ptrs(
      static_cast<std::size_t>(num_blocks),
      std::vector<eid_t>(static_cast<std::size_t>(n) + 1, 0));
  for (vid_t r = 0; r < n; ++r)
    for (eid_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i)
      ++row_ptrs[static_cast<std::size_t>(block_of(col_idx_[static_cast<std::size_t>(i)]))]
                [static_cast<std::size_t>(r) + 1];
  for (auto& rp : row_ptrs)
    for (vid_t v = 0; v < n; ++v) rp[v + 1] += rp[v];

  std::vector<std::vector<vid_t>> cols(static_cast<std::size_t>(num_blocks));
  std::vector<std::vector<eid_t>> eids(static_cast<std::size_t>(num_blocks));
  std::vector<std::vector<eid_t>> cursor(static_cast<std::size_t>(num_blocks));
  for (int b = 0; b < num_blocks; ++b) {
    cols[b].resize(static_cast<std::size_t>(row_ptrs[b].back()));
    eids[b].resize(static_cast<std::size_t>(row_ptrs[b].back()));
    cursor[b].assign(row_ptrs[b].begin(), row_ptrs[b].end() - 1);
  }
  for (vid_t r = 0; r < n; ++r) {
    for (eid_t i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
      const vid_t u = col_idx_[static_cast<std::size_t>(i)];
      const int b = block_of(u);
      const eid_t slot = cursor[b][static_cast<std::size_t>(r)]++;
      cols[b][static_cast<std::size_t>(slot)] = u;
      eids[b][static_cast<std::size_t>(slot)] = edge_id_[static_cast<std::size_t>(i)];
    }
  }

  std::vector<CsrMatrix> out;
  out.reserve(static_cast<std::size_t>(num_blocks));
  for (int b = 0; b < num_blocks; ++b)
    out.push_back(from_raw(std::move(row_ptrs[b]), std::move(cols[b]), std::move(eids[b])));
  return out;
}

CsrMatrix CsrMatrix::select_rows(std::span<const vid_t> rows) const {
  std::vector<eid_t> row_ptr(rows.size() + 1, 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] < 0 || rows[i] >= num_rows())
      throw std::out_of_range("CsrMatrix::select_rows: row outside [0, num_rows())");
    row_ptr[i + 1] = row_ptr[i] + degree(rows[i]);
  }
  std::vector<vid_t> col_idx;
  std::vector<eid_t> edge_id;
  col_idx.reserve(static_cast<std::size_t>(row_ptr.back()));
  edge_id.reserve(static_cast<std::size_t>(row_ptr.back()));
  for (const vid_t r : rows) {
    const auto nbrs = neighbors(r);
    const auto ids = edge_ids(r);
    col_idx.insert(col_idx.end(), nbrs.begin(), nbrs.end());
    edge_id.insert(edge_id.end(), ids.begin(), ids.end());
  }
  return from_raw(std::move(row_ptr), std::move(col_idx), std::move(edge_id));
}

CsrMatrix CsrMatrix::select_columns(std::span<const vid_t> column_map) const {
  const auto mapped = [&](vid_t c) {
    if (c < 0 || static_cast<std::size_t>(c) >= column_map.size())
      throw std::out_of_range("CsrMatrix::select_columns: column outside the column map");
    return column_map[static_cast<std::size_t>(c)];
  };
  const vid_t n = num_rows();
  std::vector<eid_t> row_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (vid_t r = 0; r < n; ++r) {
    eid_t kept = 0;
    for (const vid_t c : neighbors(r)) kept += mapped(c) >= 0 ? 1 : 0;
    row_ptr[static_cast<std::size_t>(r) + 1] = row_ptr[static_cast<std::size_t>(r)] + kept;
  }
  std::vector<vid_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<eid_t> edge_id(col_idx.size());
  std::size_t slot = 0;
  for (std::size_t i = 0; i < col_idx_.size(); ++i) {
    const vid_t c = column_map[static_cast<std::size_t>(col_idx_[i])];
    if (c < 0) continue;
    col_idx[slot] = c;
    edge_id[slot++] = edge_id_[i];
  }
  return from_raw(std::move(row_ptr), std::move(col_idx), std::move(edge_id));
}

}  // namespace distgnn
