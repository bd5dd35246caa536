#include "stream/mixed_loop.hpp"

#include <chrono>
#include <thread>
#include <vector>

namespace distgnn::stream {

MixedLoopReport run_mixed_open_loop(serve::ServingBackend& backend, DeltaPublisher& publisher,
                                    std::span<const GraphDelta> deltas,
                                    const MixedLoopConfig& config) {
  using Clock = std::chrono::steady_clock;
  MixedLoopReport report;

  // Writer: replay the delta stream at its arrival instants. Pre-generated
  // offsets keep the write side deterministic in shape even though publish
  // durations vary run to run.
  const std::vector<double> write_arrivals =
      serve::generate_arrivals(config.writes, deltas.size());
  serve::LatencyRecorder apply_latency;
  std::thread writer([&] {
    const auto start = Clock::now();
    for (std::size_t d = 0; d < deltas.size(); ++d) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(write_arrivals[d]));
      std::this_thread::sleep_until(due);
      const auto t0 = Clock::now();
      report.final_epoch = publisher.publish(deltas[d]);
      apply_latency.record(std::chrono::duration<double>(Clock::now() - t0).count());
      ++report.deltas_published;
    }
  });

  report.reads = serve::run_open_loop(config.reads, backend, serve::submit_to(backend));
  writer.join();

  report.apply_mean_ms = apply_latency.mean_seconds() * 1e3;
  report.apply_p50_ms = apply_latency.quantile(0.50) * 1e3;
  report.apply_p99_ms = apply_latency.quantile(0.99) * 1e3;
  return report;
}

}  // namespace distgnn::stream
