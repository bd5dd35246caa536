// Figure 2: per-epoch Total and Aggregation-Primitive time, baseline DGL
// (Alg. 1) vs the optimized implementation (Alg. 2+3), on the four datasets
// that fit a single socket. The paper reports up to 3.66x Total and 4.41x AP
// speedup; at sim scale the shape (optimized >> baseline AP) is the
// reproduction target.
//
// The trainers aggregate the constant input features once, at construction,
// so the per-epoch AP column covers the hidden layers and the backward pass
// only. The "input AP" columns time that one aggregation at input width,
// where the paper's AP comparison is widest.
//
// Training runs the GraphSAGE output layer only on the training rows (the
// output frontier); a second table prints its rows and edges beside the full
// graph's.
#include <cstdio>
#include <type_traits>

#include "bench_common.hpp"
#include "core/rgcn_trainer.hpp"
#include "core/single_socket_trainer.hpp"
#include "kernels/isa.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace distgnn;

namespace {

struct Workload {
  const char* dataset;
  int layers;
  int hidden;
  double scale_mult;  // am-sim is tiny; keep it near full size at bench scale
};

struct Timing {
  double total_seconds = 0.0;     // mean per epoch
  double ap_seconds = 0.0;        // mean per epoch
  double input_ap_seconds = 0.0;  // once, at construction
  vid_t frontier_rows = 0;         // GraphSAGE only: the output frontier
  eid_t frontier_edges = 0;
};

/// Mean per-epoch times of `epochs` epochs after a warm-up epoch.
template <typename Trainer>
Timing run(const Dataset& ds, const TrainConfig& cfg, int epochs) {
  Trainer trainer(ds, cfg);
  Timing t;
  t.input_ap_seconds = trainer.input_ap_seconds();
  if constexpr (std::is_same_v<Trainer, SingleSocketTrainer>) {
    t.frontier_rows = static_cast<vid_t>(trainer.output_frontier().size());
    t.frontier_edges = trainer.output_frontier().num_edges();
  }
  trainer.train_epoch();  // warm-up epoch
  for (int e = 0; e < epochs; ++e) {
    const auto s = trainer.train_epoch();
    t.total_seconds += s.total_seconds;
    t.ap_seconds += s.ap_seconds;
  }
  t.total_seconds /= epochs;
  t.ap_seconds /= epochs;
  return t;
}

std::vector<std::string> row(const std::string& name, const Timing& base, const Timing& opt) {
  return {name,
          TextTable::fmt(base.total_seconds, 4),
          TextTable::fmt(base.ap_seconds, 4),
          TextTable::fmt(opt.total_seconds, 4),
          TextTable::fmt(opt.ap_seconds, 4),
          TextTable::fmt(base.total_seconds / opt.total_seconds, 2) + "x",
          TextTable::fmt(base.ap_seconds / opt.ap_seconds, 2) + "x",
          TextTable::fmt(base.input_ap_seconds, 4),
          TextTable::fmt(opt.input_ap_seconds, 4),
          TextTable::fmt(base.input_ap_seconds / opt.input_ap_seconds, 2) + "x"};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const double scale = bench::default_scale(opts, 0.125);
  const int epochs = static_cast<int>(opts.get_int("epochs", 3));

  bench::print_header("Single-socket training: baseline DGL AP vs optimized AP",
                      "Figure 2 (GraphSAGE on Reddit/OGBN-Products/Proteins, RGCN on AM)");
  std::printf("[kernels] %s variant\n", kernels::active_isa());

  // Paper model shapes: 2 layers/16 hidden for Reddit, 3/256 otherwise
  // (hidden scaled down with the datasets to keep the MLP proportionate).
  const Workload workloads[] = {
      {"reddit-sim", 2, 16, 1.0},
      {"ogbn-products-sim", 3, 64, 1.0},
      {"proteins-sim", 3, 64, 1.0},
  };

  TextTable table({"dataset", "baseline Total (s)", "baseline AP (s)", "optimized Total (s)",
                   "optimized AP (s)", "Total speedup", "AP speedup", "baseline input AP (s)",
                   "optimized input AP (s)", "input AP speedup"});
  TextTable frontier({"dataset", "rows", "edges", "frontier rows", "frontier edges",
                      "frontier edge share"});
  for (const Workload& w : workloads) {
    const Dataset ds = bench::load(w.dataset, scale * w.scale_mult);
    TrainConfig cfg;
    cfg.num_layers = w.layers;
    cfg.hidden_dim = w.hidden;
    cfg.ap_mode = ApMode::kBaseline;
    const Timing base = run<SingleSocketTrainer>(ds, cfg, epochs);
    cfg.ap_mode = ApMode::kOptimized;
    const Timing opt = run<SingleSocketTrainer>(ds, cfg, epochs);
    table.add_row(row(w.dataset, base, opt));
    frontier.add_row({w.dataset, TextTable::fmt_int(ds.num_vertices()),
                      TextTable::fmt_int(ds.num_edges()), TextTable::fmt_int(opt.frontier_rows),
                      TextTable::fmt_int(opt.frontier_edges),
                      TextTable::fmt(static_cast<double>(opt.frontier_edges) /
                                         static_cast<double>(ds.num_edges()),
                                     3)});
  }
  // Figure 2(d): RGCN-hetero on the AM-like knowledge graph (typed edges,
  // one relation weight per edge type).
  {
    HeteroSbmParams hp;
    hp.num_vertices = static_cast<vid_t>(8192 * scale * 8);
    hp.num_classes = 11;
    hp.num_edge_types = 4;
    hp.avg_degree = 6.4;
    std::printf("[dataset] am-sim-hetero |V|=%lld relations=%d\n",
                static_cast<long long>(hp.num_vertices), hp.num_edge_types);
    const Dataset hds = make_hetero_dataset(hp);
    TrainConfig cfg;
    cfg.num_layers = 2;
    cfg.hidden_dim = 16;
    cfg.ap_mode = ApMode::kBaseline;
    const Timing base = run<RgcnTrainer>(hds, cfg, epochs);
    cfg.ap_mode = ApMode::kOptimized;
    const Timing opt = run<RgcnTrainer>(hds, cfg, epochs);
    table.add_row(row("am-sim (RGCN-hetero)", base, opt));
  }

  std::printf("%s", table.render("Per-epoch time (mean of " + std::to_string(epochs) +
                                 " epochs); input AP once per trainer")
                        .c_str());
  std::printf("\nPaper reference: Total speedups 1.95x-3.66x, AP speedups up to 4.41x.\n"
              "Layer 0 is aggregated once per trainer, so the per-epoch AP columns leave\n"
              "out the input-width aggregation the paper's epochs repeat; the input AP\n"
              "columns time it once per mode.\n\n");
  std::printf("%s", frontier.render("Output layer in training: full graph vs output frontier")
                        .c_str());
  return 0;
}
