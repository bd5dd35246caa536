// Request/response types and the bounded micro-batching queue shared by the
// single-process and sharded inference servers.
//
// The queue is the admission point of the serving pipeline: producers
// (traffic generators, RPC shims) push single-vertex inference requests;
// worker threads pop *batches* under a dynamic micro-batching policy — a
// batch closes when it reaches `max_batch` requests or when `max_delay` has
// elapsed since its first request was popped, whichever comes first. Bounded
// capacity gives open-loop load a real rejection path instead of unbounded
// queue growth.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "serve/tenant.hpp"
#include "util/sync.hpp"
#include "util/types.hpp"

namespace distgnn::serve {

struct InferResult {
  std::uint64_t request_id = 0;
  vid_t vertex = kInvalidVertex;
  std::vector<real_t> logits;          // num_classes entries
  double latency_seconds = 0.0;        // submit -> completion
  std::uint64_t snapshot_version = 0;  // which model produced this answer
  tenant_t tenant = kDefaultTenant;    // echo of the request's tenant lane
  /// Admitted, then shed before any replica took it (a Router's staged
  /// request once the tier stopped under it). Carries no logits; callers
  /// count it as shed, not completed.
  bool shed = false;
};

struct InferRequest {
  std::uint64_t id = 0;
  vid_t vertex = kInvalidVertex;
  ServeClock::time_point enqueue{};
  /// Admission-control metadata. The router decides at submit time whether
  /// the deadline is meetable; once admitted a request is always answered,
  /// even if its deadline has since slipped — late answers keep the
  /// bitwise-equality contract with single-server serving.
  ServeClock::time_point deadline = ServeClock::time_point::max();
  Priority priority = Priority::kHigh;
  tenant_t tenant = kDefaultTenant;
  /// Stage trace for sampled requests (null = untraced). Written by the
  /// submit thread before the push and by the owning worker after the pop;
  /// the queue mutex orders the hand-off.
  std::shared_ptr<obs::TraceContext> trace;
  std::function<void(InferResult&&)> done;  // invoked exactly once per request
};

class BoundedRequestQueue {
 public:
  explicit BoundedRequestQueue(std::size_t capacity) : capacity_(capacity) {}

  /// Non-blocking admission; false when the queue is full or closed (the
  /// caller counts a rejection).
  bool try_push(InferRequest request) {
    {
      util::MutexLock lock(mutex_);
      if (closed_ || queue_.size() >= capacity_) return false;
      queue_.push_back(std::move(request));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Pops the next micro-batch: blocks for the first request, then keeps
  /// accepting until the batch is full or `max_delay` has passed since the
  /// first pop. An empty result means the queue is closed and drained.
  std::vector<InferRequest> pop_batch(int max_batch, std::chrono::microseconds max_delay) {
    std::vector<InferRequest> batch;
    util::MutexLock lock(mutex_);
    while (!closed_ && queue_.empty()) not_empty_.wait(lock);
    if (queue_.empty()) return batch;  // closed and drained

    const auto deadline = ServeClock::now() + max_delay;
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
    while (static_cast<int>(batch.size()) < max_batch) {
      if (queue_.empty()) {
        if (closed_) break;
        while (!closed_ && queue_.empty()) {
          if (not_empty_.wait_until(lock, deadline) == std::cv_status::timeout)
            break;  // delay budget exhausted
        }
        if (queue_.empty()) break;
      }
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return batch;
  }

  /// Non-blocking batch pop: takes up to `max_batch` immediately-available
  /// requests, empty when none are waiting. The sharded rank loops use this
  /// instead of pop_batch because a rank that blocked waiting for local work
  /// would stop answering peers' halo requests (distributed deadlock).
  std::vector<InferRequest> try_pop_batch(int max_batch) {
    std::vector<InferRequest> batch;
    util::MutexLock lock(mutex_);
    while (static_cast<int>(batch.size()) < max_batch && !queue_.empty()) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    return batch;
  }

  /// Reopens a closed queue for admission (server restart). Only valid once
  /// the previous consumers have drained and exited.
  void reopen() {
    util::MutexLock lock(mutex_);
    closed_ = false;
  }

  /// Wakes every consumer; pending requests are still drained by pop_batch.
  void close() {
    {
      util::MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  std::size_t size() const {
    util::MutexLock lock(mutex_);
    return queue_.size();
  }

  /// True between close() and reopen(). "closed and empty" is the only safe
  /// consumer exit condition: a producer may still be mid-try_push while a
  /// stop flag is already visible, but never after close() returns.
  bool closed() const {
    util::MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  mutable util::Mutex mutex_;
  util::CondVar not_empty_;
  std::deque<InferRequest> queue_ GUARDED_BY(mutex_);
  std::size_t capacity_;  // immutable after construction
  bool closed_ GUARDED_BY(mutex_) = false;
};

}  // namespace distgnn::serve
