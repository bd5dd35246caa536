#include "serve/prefetch.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

namespace distgnn::serve {

namespace {

// Point-to-point protocol tags (World payloads are float vectors, so vertex
// ids travel as two bit-cast 32-bit halves per id). Shared with the round
// barrier tag range of sharded_server (910x).
constexpr int kTagFeatReq = 9101;
constexpr int kTagFeatResp = 9102;

std::vector<real_t> encode_ids(std::span<const vid_t> ids) {
  std::vector<real_t> out(2 * ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t u = static_cast<std::uint64_t>(ids[i]);
    const std::uint32_t lo = static_cast<std::uint32_t>(u);
    const std::uint32_t hi = static_cast<std::uint32_t>(u >> 32);
    std::memcpy(&out[2 * i], &lo, sizeof(lo));
    std::memcpy(&out[2 * i + 1], &hi, sizeof(hi));
  }
  return out;
}

std::vector<vid_t> decode_ids(const std::vector<real_t>& payload) {
  std::vector<vid_t> ids(payload.size() / 2);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, &payload[2 * i], sizeof(lo));
    std::memcpy(&hi, &payload[2 * i + 1], sizeof(hi));
    ids[i] = static_cast<vid_t>((static_cast<std::uint64_t>(hi) << 32) | lo);
  }
  return ids;
}

}  // namespace

HaloFetcher::HaloFetcher(Communicator& comm, std::span<const part_t> owner,
                         std::span<const std::size_t> owned_row, const DenseMatrix& owned_rows,
                         ShardedFeatureCache& cache, HaloCounters counters)
    : comm_(comm),
      owner_(owner),
      owned_row_(owned_row),
      owned_rows_(owned_rows),
      cache_(cache),
      dim_(cache.dim()),
      counters_(counters) {}

const real_t* HaloFetcher::owned(vid_t v) const {
  const auto i = static_cast<std::size_t>(v);
  if (v < 0 || i >= owner_.size() || owner_[i] != comm_.rank())
    throw std::out_of_range("HaloFetcher: row of a vertex this rank does not own");
  return owned_rows_.row(owned_row_[i]);
}

void HaloFetcher::service_peers() {
  const int num_ranks = comm_.size();
  for (int p = 0; p < num_ranks; ++p) {
    if (p == comm_.rank()) continue;
    while (auto msg = comm_.try_recv(p, kTagFeatReq)) {
      const std::vector<vid_t> ids = decode_ids(*msg);
      std::vector<real_t> payload(ids.size() * dim_);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const real_t* src = owned(ids[i]);
        std::copy(src, src + dim_, payload.data() + i * dim_);
      }
      comm_.send(p, kTagFeatResp, std::move(payload));
    }
  }
}

void HaloFetcher::begin_fetch(HaloBatch& batch) {
  if (batch.in_flight) throw std::logic_error("HaloFetcher: begin_fetch on an in-flight batch");
  const part_t me = static_cast<part_t>(comm_.rank());
  const std::size_t num_ranks = static_cast<std::size_t>(comm_.size());

  std::size_t input_rows = 0;
  for (const MiniBatch& mb : batch.minibatches) input_rows += mb.input_vertices.size();
  batch.inputs.resize_discard(input_rows, dim_);
  batch.need.resize(num_ranks);
  batch.need_rows.resize(num_ranks);
  batch.foreign_rows.resize(num_ranks);
  for (auto& n : batch.need) n.clear();
  for (auto& n : batch.need_rows) n.clear();
  for (auto& n : batch.foreign_rows) n.clear();
  batch.pending.clear();

  // Owned rows through the local cache space, resident halo rows through the
  // halo space; everything else goes on the per-owner wire lists (batches
  // routinely re-sample shared hub vertices, so the wire carries each row
  // once and fans it out to every input row that needs it).
  std::size_t row = 0;
  for (const MiniBatch& mb : batch.minibatches) {
    for (const vid_t v : mb.input_vertices) {
      const part_t owner = owner_[static_cast<std::size_t>(v)];
      if (owner == me) {
        cache_.get_or_fill(/*space=*/0, static_cast<std::uint64_t>(v), batch.inputs.row(row),
                           [&](real_t* dst) {
                             const real_t* src = owned(v);
                             std::copy(src, src + dim_, dst);
                           });
      } else if (!cache_.lookup(/*space=*/1, static_cast<std::uint64_t>(v),
                                batch.inputs.row(row))) {
        const auto inflight = in_flight_.find(v);
        if (inflight != in_flight_.end() && inflight->second.first != &batch) {
          // Another in-flight batch already has this row on the wire (with
          // prefetch, its insert() lands after our lookup): fan its response
          // out here too instead of paying a second round trip.
          auto* other = inflight->second.first;
          other->foreign_rows[static_cast<std::size_t>(owner)][inflight->second.second]
              .emplace_back(&batch, row);
        } else {
          auto& owner_need = batch.need[static_cast<std::size_t>(owner)];
          auto& owner_rows = batch.need_rows[static_cast<std::size_t>(owner)];
          const auto [it, inserted] = batch.pending.emplace(v, owner_need.size());
          if (inserted) {
            owner_need.push_back(v);
            owner_rows.push_back({row});
            batch.foreign_rows[static_cast<std::size_t>(owner)].push_back({});
            in_flight_.emplace(v, std::make_pair(&batch, it->second));
          } else {
            owner_rows[it->second].push_back(row);
          }
        }
      }
      ++row;
    }
  }

  batch.outstanding = 0;
  for (std::size_t p = 0; p < num_ranks; ++p) {
    if (batch.need[p].empty()) continue;
    comm_.send(static_cast<int>(p), kTagFeatReq, encode_ids(batch.need[p]));
    ++batch.outstanding;
  }
  batch.in_flight = true;
}

void HaloFetcher::finish_fetch(HaloBatch& batch) {
  if (!batch.in_flight) throw std::logic_error("HaloFetcher: finish_fetch without begin_fetch");
  const auto wait_begin = std::chrono::steady_clock::now();
  while (batch.outstanding > 0) {
    service_peers();
    for (std::size_t p = 0; p < batch.need.size(); ++p) {
      auto& ids = batch.need[p];
      if (ids.empty()) continue;
      auto resp = comm_.try_recv(static_cast<int>(p), kTagFeatResp);
      if (!resp) continue;
      const auto& rows_for = batch.need_rows[p];
      const auto& foreign_for = batch.foreign_rows[p];
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const real_t* src = resp->data() + i * dim_;
        for (const std::size_t dst_row : rows_for[i])
          std::copy(src, src + dim_, batch.inputs.row(dst_row));
        for (const auto& [piggyback, dst_row] : foreign_for[i])
          std::copy(src, src + dim_, piggyback->inputs.row(dst_row));
        cache_.insert(/*space=*/1, static_cast<std::uint64_t>(ids[i]), src);
        in_flight_.erase(ids[i]);
      }
      counters_.rows.add(ids.size());
      counters_.bytes.add(ids.size() * dim_ * sizeof(real_t));
      ids.clear();
      --batch.outstanding;
    }
    std::this_thread::yield();
  }
  counters_.wait_ns.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           wait_begin)
          .count()));
  batch.in_flight = false;
}

}  // namespace distgnn::serve
