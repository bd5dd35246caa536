// google-benchmark microbenchmarks of the Aggregation Primitive variants:
// the kernel-level view behind Figures 2-4, plus the two GEMMs of the MLP
// that follows the aggregation. Run with --benchmark_filter=... to drill
// into one variant. The context line `isa` names the kernel variant the
// host runs (kernels/isa.hpp).
#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "kernels/aggregate.hpp"
#include "kernels/isa.hpp"
#include "nn/gemm.hpp"
#include "util/rng.hpp"

namespace distgnn {
namespace {

struct Fixture {
  CsrMatrix csr;
  DenseMatrix features;
  DenseMatrix out;

  static Fixture& dense() {
    static Fixture f = make(1 << 14, 64, 256, 1);
    return f;
  }
  static Fixture& sparse() {
    static Fixture f = make(1 << 16, 12, 100, 2);
    return f;
  }

  static Fixture make(vid_t n, double deg, std::size_t d, std::uint64_t seed) {
    Fixture f;
    RmatParams p;
    p.num_vertices = n;
    p.num_edges = static_cast<eid_t>(deg * static_cast<double>(n) / 2);
    p.seed = seed;
    f.csr = CsrMatrix::from_coo(generate_rmat(p));
    Rng rng(seed);
    f.features = DenseMatrix(static_cast<std::size_t>(n), d);
    for (std::size_t i = 0; i < f.features.size(); ++i)
      f.features.data()[i] = rng.uniform(-1.0f, 1.0f);
    f.out = DenseMatrix(static_cast<std::size_t>(n), d, 0);
    return f;
  }
};

void BM_Baseline_Dense(benchmark::State& state) {
  Fixture& f = Fixture::dense();
  for (auto _ : state) {
    f.out.zero();
    aggregate_baseline(f.csr, f.features.cview(), {}, f.out.view(), BinaryOp::kCopyLhs,
                       ReduceOp::kSum);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.num_entries());
}
BENCHMARK(BM_Baseline_Dense)->Unit(benchmark::kMillisecond);

void BM_Optimized_Dense(benchmark::State& state) {
  Fixture& f = Fixture::dense();
  ApConfig cfg;
  cfg.num_blocks = static_cast<int>(state.range(0));
  const BlockedCsr blocks(f.csr, cfg.num_blocks);
  for (auto _ : state) {
    f.out.zero();
    aggregate_prepartitioned(blocks, f.features.cview(), {}, f.out.view(), cfg);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.num_entries());
}
BENCHMARK(BM_Optimized_Dense)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Baseline_Sparse(benchmark::State& state) {
  Fixture& f = Fixture::sparse();
  for (auto _ : state) {
    f.out.zero();
    aggregate_baseline(f.csr, f.features.cview(), {}, f.out.view(), BinaryOp::kCopyLhs,
                       ReduceOp::kSum);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.num_entries());
}
BENCHMARK(BM_Baseline_Sparse)->Unit(benchmark::kMillisecond);

void BM_Optimized_Sparse(benchmark::State& state) {
  Fixture& f = Fixture::sparse();
  ApConfig cfg;
  cfg.num_blocks = static_cast<int>(state.range(0));
  const BlockedCsr blocks(f.csr, cfg.num_blocks);
  for (auto _ : state) {
    f.out.zero();
    aggregate_prepartitioned(blocks, f.features.cview(), {}, f.out.view(), cfg);
    benchmark::DoNotOptimize(f.out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr.num_entries());
}
BENCHMARK(BM_Optimized_Sparse)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_MicrokernelToggle(benchmark::State& state) {
  Fixture& f = Fixture::dense();
  ApConfig cfg;
  cfg.num_blocks = 16;
  cfg.use_microkernel = state.range(0) != 0;
  const BlockedCsr blocks(f.csr, cfg.num_blocks);
  for (auto _ : state) {
    f.out.zero();
    aggregate_prepartitioned(blocks, f.features.cview(), {}, f.out.view(), cfg);
    benchmark::DoNotOptimize(f.out.data());
  }
}
BENCHMARK(BM_MicrokernelToggle)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// The first GraphSAGE layer's GEMMs at proteins-sim scale: a 65536 x 128
// input and a 32-wide hidden layer.
struct GemmFixture {
  DenseMatrix x, w, dy, dw, y;

  static GemmFixture& get() {
    static GemmFixture f = make(1 << 16, 128, 32);
    return f;
  }

  static GemmFixture make(std::size_t n, std::size_t in, std::size_t out) {
    GemmFixture f;
    Rng rng(3);
    f.x = DenseMatrix(n, in);
    f.w = DenseMatrix(in, out);
    f.dy = DenseMatrix(n, out);
    for (DenseMatrix* m : {&f.x, &f.w, &f.dy})
      for (std::size_t i = 0; i < m->size(); ++i) m->data()[i] = rng.uniform(-1.0f, 1.0f);
    f.dw = DenseMatrix(in, out);
    f.y = DenseMatrix(n, out);
    return f;
  }

  double flops() const { return 2.0 * static_cast<double>(x.rows() * x.cols() * w.cols()); }
};

// Forward projection Y = X W (rows::xw_rows tiles).
void BM_GemmForward(benchmark::State& state) {
  GemmFixture& f = GemmFixture::get();
  for (auto _ : state) {
    gemm(f.x.cview(), f.w.cview(), f.y.view());
    benchmark::DoNotOptimize(f.y.data());
    benchmark::ClobberMemory();
  }
  state.counters["flops"] =
      benchmark::Counter(f.flops(), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmForward)->Unit(benchmark::kMillisecond)->UseRealTime();

// Weight gradient dW = Xᵀ dY (k-chunked register tiles).
void BM_GemmWeightGrad(benchmark::State& state) {
  GemmFixture& f = GemmFixture::get();
  for (auto _ : state) {
    gemm_at_b(f.x.cview(), f.dy.cview(), f.dw.view());
    benchmark::DoNotOptimize(f.dw.data());
    benchmark::ClobberMemory();
  }
  state.counters["flops"] =
      benchmark::Counter(f.flops(), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_GemmWeightGrad)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace distgnn

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("isa", distgnn::kernels::active_isa());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
