// Timing helpers for the trainers' phase times: wall seconds on the steady
// clock, and per-thread CPU seconds for simulated ranks.
#pragma once

#include <chrono>

namespace distgnn {

/// CPU seconds consumed by the calling thread. The in-process cluster
/// simulation (comm/World) oversubscribes the host when ranks outnumber
/// cores, so wall-clock per-rank phase times would include scheduler waits;
/// thread CPU time measures the rank's actual work, which is what the paper's
/// per-socket LAT/RAT numbers mean. Falls back to wall clock on platforms
/// without a per-thread CPU clock.
double thread_cpu_seconds();

/// Wall seconds from `t0` to now on the steady clock.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace distgnn
