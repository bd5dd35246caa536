// In-process message-passing runtime — the cluster substitute.
//
// The paper runs one MPI rank per CPU socket with OneCCL collectives
// (AlltoAll for partial aggregates, AllReduce for parameter sync). No MPI is
// available offline, so World runs each rank on its own std::thread inside
// one process, with mailbox-based point-to-point messages and barrier-based
// collectives that mirror the MPI surface the paper's algorithms use:
//
//   * barrier / allreduce(sum|max) / broadcast / allgather
//   * nonblocking tagged send + blocking/polling recv (the halo exchange of
//     partial aggregates, on time for cd-0 and delayed for cd-r)
//
// Semantics match MPI where it matters: per (source, tag) channel ordering,
// no message loss, collectives synchronize all ranks. Wall-clock costs are
// obviously those of shared memory, so cross-rank *volumes* are also counted
// (CommStats) to let benches report communication the way the paper reasons
// about it.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "nn/optim.hpp"
#include "util/types.hpp"
#include "util/sync.hpp"

namespace distgnn {

/// Per-rank communication volume counters.
struct CommStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t allreduce_calls = 0;
  std::uint64_t allreduce_bytes = 0;
};

class Communicator;

/// Owns the shared state of a fixed-size rank group and runs rank bodies.
class World {
 public:
  explicit World(int num_ranks);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int num_ranks() const { return num_ranks_; }

  /// Runs `body(comm)` on `num_ranks` threads, one Communicator per rank,
  /// and joins them. Exceptions thrown by any rank are rethrown here (the
  /// first one wins). Reusable: run() can be called repeatedly.
  void run(const std::function<void(Communicator&)>& body);

  /// Convenience one-shot world.
  static void launch(int num_ranks, const std::function<void(Communicator&)>& body);

 private:
  friend class Communicator;

  struct Message {
    int source = 0;
    int tag = 0;
    std::vector<real_t> payload;
  };

  struct Mailbox {
    util::Mutex mutex;
    util::CondVar cv;
    std::map<std::pair<int, int>, std::deque<std::vector<real_t>>> queues
        GUARDED_BY(mutex);  // (src, tag)
  };

  // Generation-counting barrier (std::barrier needs a fixed completion fn;
  // we also reuse it as the rendezvous for reduction buffers).
  void barrier_wait();

  int num_ranks_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<CommStats> stats_;

  util::Mutex barrier_mutex_;
  util::CondVar barrier_cv_;
  int barrier_arrived_ GUARDED_BY(barrier_mutex_) = 0;
  std::uint64_t barrier_generation_ GUARDED_BY(barrier_mutex_) = 0;

  // Collective scratch: pointers registered per rank, valid between the two
  // barriers that bracket each collective.
  std::vector<void*> collective_slots_;
};

/// One rank's handle onto a World. Not thread-safe; each rank thread owns one.
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return world_.num_ranks_; }

  void barrier();

  /// In-place elementwise sum across ranks; every rank ends with the total.
  void allreduce_sum(std::span<real_t> data);
  void allreduce_sum(std::span<double> data);
  /// In-place elementwise max across ranks.
  void allreduce_max(std::span<real_t> data);

  /// Copies root's buffer into every rank's buffer.
  void broadcast(std::span<real_t> data, int root);

  /// Variable-length broadcast: root's size wins and the other ranks'
  /// vectors are resized to match before the copy. This is the group
  /// snapshot-publication primitive — replicas receive a payload whose size
  /// only the publisher knows (flattened model weights).
  void broadcast_v(std::vector<real_t>& data, int root);

  /// Gathers each rank's value; result indexed by rank. Available on all ranks.
  std::vector<std::int64_t> allgather(std::int64_t value);

  /// Nonblocking tagged point-to-point: enqueues and returns immediately.
  void send(int dest, int tag, std::vector<real_t> payload);
  /// Blocks until a message with (source, tag) arrives.
  std::vector<real_t> recv(int source, int tag);
  /// Non-blocking probe-and-take.
  std::optional<std::vector<real_t>> try_recv(int source, int tag);
  /// Messages sent to this rank and not yet received, over every (source, tag).
  std::size_t pending_messages() const;

  const CommStats& stats() const { return world_.stats_[static_cast<std::size_t>(rank_)]; }

 private:
  friend class World;
  Communicator(World& world, int rank) : world_(world), rank_(rank) {}

  template <typename T>
  void allreduce_impl(std::span<T> data);

  World& world_;
  int rank_;
};

/// Sums every rank's parameter gradients in place: one AllReduce over the
/// gradients of `params`, packed in order. The data-parallel step of the
/// full-batch and the sampled distributed trainers.
void allreduce_gradients(Communicator& comm, std::span<const ParamRef> params);

}  // namespace distgnn
