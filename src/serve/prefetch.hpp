// Asynchronous halo feature fetching for the sharded serving tier.
//
// serve_sharded's gather has two sides: owned rows come straight out of the
// rank's feature shard (through the local cache space), while halo rows —
// sampled neighbours owned by another rank — need a point-to-point
// request/response round trip. Synchronously, that round trip stalls the
// batch until the owning rank reaches a service point (often the *end of its
// own forward*), which is exactly the stall the paper's delayed remote
// aggregates eliminate on the training side.
//
// HaloFetcher splits the gather into begin_fetch (assemble local + cached
// rows, issue the requests, return immediately) and finish_fetch (absorb the
// responses, servicing peers while waiting). With two HaloBatch buffers the
// server issues batch N+1's requests before running batch N's forward, so
// the peer's reply and the wire transfer overlap compute and finish_fetch's
// measured wait collapses — halo wait per batch is the overlap metric the
// bench reports. Responses per (peer, tag) channel are FIFO, so in-order
// begin/finish pairs always match their own replies even with two batches in
// flight.
//
// Answers are unaffected: the fetch returns owner-authoritative rows either
// way, so prefetched batches stay bitwise-equal to the synchronous path.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "comm/world.hpp"
#include "obs/metrics.hpp"
#include "sampling/minibatch.hpp"
#include "serve/feature_cache.hpp"
#include "util/matrix.hpp"

namespace distgnn::serve {

/// The rank's registry counters a HaloFetcher adds into: rows and bytes that
/// crossed a rank boundary, and nanoseconds blocked inside finish_fetch.
struct HaloCounters {
  obs::Counter& rows;
  obs::Counter& bytes;
  obs::Counter& wait_ns;
};

/// One in-flight gather: the caller samples `minibatches`, begin_fetch fills
/// `inputs` (local + cached rows immediately, halo rows on finish_fetch).
struct HaloBatch {
  std::vector<MiniBatch> minibatches;
  DenseMatrix inputs;

 private:
  friend class HaloFetcher;
  std::vector<std::vector<vid_t>> need;                     // per owner: unique missing ids
  std::vector<std::vector<std::vector<std::size_t>>> need_rows;  // input rows per missing id
  /// Rows of *other* in-flight batches piggybacked onto this batch's
  /// requests (a vertex two overlapping batches both miss travels once).
  std::vector<std::vector<std::vector<std::pair<HaloBatch*, std::size_t>>>> foreign_rows;
  std::unordered_map<vid_t, std::size_t> pending;           // vid -> index in need[owner]
  int outstanding = 0;                                      // owners still to respond
  bool in_flight = false;
};

class HaloFetcher {
 public:
  /// `owner` maps every vertex to its owning rank and `owned_row` to its row
  /// in its owner's shard; `owned_rows` is this rank's shard. All referenced
  /// state must outlive the fetcher. `cache` spaces follow the sharded-server
  /// convention (0 = owned rows, 1 = halo rows).
  HaloFetcher(Communicator& comm, std::span<const part_t> owner,
              std::span<const std::size_t> owned_row, const DenseMatrix& owned_rows,
              ShardedFeatureCache& cache, HaloCounters counters);

  /// v's feature row in this rank's shard; std::out_of_range unless this
  /// rank owns v.
  const real_t* owned(vid_t v) const;

  /// Answers any queued halo requests from peers; never blocks. Must keep
  /// being called from every wait loop on the rank (a plain blocking wait
  /// deadlocks: a peer may be blocked on our reply).
  void service_peers();

  /// Gathers what is resident (owned + cached halo rows) into batch.inputs
  /// and issues one grouped request per owner for the rest. A row already
  /// requested by another in-flight batch is not re-requested: the earlier
  /// batch's response fans out into this batch's inputs too. Returns
  /// immediately; the batch is in flight until finish_fetch.
  void begin_fetch(HaloBatch& batch);

  /// Blocks (servicing peers) until every outstanding halo row of `batch`
  /// has landed in batch.inputs and the halo cache. Batches must finish in
  /// begin order — the FIFO channel contract above.
  void finish_fetch(HaloBatch& batch);

 private:
  Communicator& comm_;
  std::span<const part_t> owner_;
  std::span<const std::size_t> owned_row_;
  const DenseMatrix& owned_rows_;
  ShardedFeatureCache& cache_;
  std::size_t dim_;
  HaloCounters counters_;
  /// Vertex -> (requesting batch, index in its need[owner]) for every halo
  /// row currently on the wire; later begin_fetch calls piggyback on it.
  /// Valid while the referenced batch stays in flight (double-buffer usage:
  /// a batch's inputs are sized at begin and stable until its finish).
  std::unordered_map<vid_t, std::pair<HaloBatch*, std::size_t>> in_flight_;
};

}  // namespace distgnn::serve
