// ledger_bench: runs one performance-ledger workload and prints its result
// as one JSON line. ledger.py builds this binary, checks the result against
// BENCHMARK.json and prints it in the benchmark's format.
//
//   ledger_bench --workload=W --seed=S --seconds=T [--trace=1] [--smoke]
//                [--trace-dir=DIR]
//   ledger_bench --build-info
//
// W is train-1s, train-4r, serve-read or serve-mixed. --trace runs the
// per-layer variant (traced tiers, layer probes) and, with --trace-dir,
// writes DIR/<W>-seed<S>.json in Chrome trace_event format (Perfetto).
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "ledger.hpp"
#include "util/options.hpp"

namespace {

using distgnn::ledger::Report;
using distgnn::ledger::RunSpec;

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAsan = true;
#else
constexpr bool kAsan = false;
#endif
#if defined(__SANITIZE_THREAD__)
constexpr bool kTsan = true;
#else
constexpr bool kTsan = false;
#endif
#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(_OPENMP)
constexpr bool kOpenMP = true;
#else
constexpr bool kOpenMP = false;
#endif

const char* flag(bool value) { return value ? "true" : "false"; }

/// How this binary was built; ledger.py refuses to time a build that is
/// unoptimized or sanitized.
std::string build_info_json() {
  return std::string("{\"build_type\":\"") + LEDGER_BUILD_TYPE + "\",\"compiler\":\"" +
         LEDGER_COMPILER + "\",\"optimized\":" + flag(kOptimized) +
         ",\"openmp\":" + flag(kOpenMP) + ",\"asan\":" + flag(kAsan) +
         ",\"tsan\":" + flag(kTsan) + "}";
}

using WorkloadFn = void (*)(const RunSpec&, Report&);
const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> table = {
      {"train-1s", distgnn::ledger::run_train_1s},
      {"train-4r", distgnn::ledger::run_train_4r},
      {"serve-read", distgnn::ledger::run_serve_read},
      {"serve-mixed", distgnn::ledger::run_serve_mixed},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  RunSpec spec;
  WorkloadFn run = nullptr;
  try {
    const distgnn::Options opts(argc, argv);
    opts.require_known({"workload", "seed", "seconds", "trace", "smoke", "trace-dir", "build-info"});
    if (opts.has("build-info")) {
      std::printf("%s\n", build_info_json().c_str());
      return 0;
    }
    spec.workload = opts.get("workload", "");
    const auto it = workloads().find(spec.workload);
    if (it == workloads().end()) throw std::invalid_argument("unknown --workload '" + spec.workload + "'");
    run = it->second;
    const long long seed = opts.get_int("seed", 1);
    spec.seconds = opts.get_double("seconds", 10);
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    if (!(spec.seconds > 0 && spec.seconds <= 600))
      throw std::invalid_argument("--seconds must be in (0, 600]");
    spec.seed = static_cast<std::uint64_t>(seed);
    spec.trace = opts.get_bool("trace", false);
    spec.smoke = opts.get_bool("smoke", false);
    spec.trace_dir = opts.get("trace-dir", "");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger_bench: %s\n", e.what());
    return 2;
  }

  try {
    Report report;
    run(spec, report);
    if (spec.trace && !spec.trace_dir.empty()) {
      const std::string path =
          spec.trace_dir + "/" + spec.workload + "-seed" + std::to_string(spec.seed) + ".json";
      std::ofstream out(path);
      out << report.spans.render(std::move(report.tower_traces));
      if (!out) throw std::runtime_error("cannot write " + path);
      std::fprintf(stderr, "ledger_bench: trace written to %s\n", path.c_str());
    }
    std::printf("%s\n", report.to_json(spec).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger_bench: %s failed: %s\n", spec.workload.c_str(), e.what());
    return 1;
  }
  return 0;
}
