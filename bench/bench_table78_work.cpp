// Tables 7 and 8: aggregation work (billions of operations) per hop for
// Dist-DGL-style mini-batch sampling vs DistGNN full-batch aggregation on
// OGBN-Products. Part (a) evaluates the analytic model at the paper's exact
// parameters (the numbers must match Table 7/8 to rounding); part (b)
// measures the sampled-edge counts of our own mini-batch sampler on the sim
// dataset to show the model's vertex counts are the right order.
#include <cstdio>

#include "bench_common.hpp"
#include "core/work_model.hpp"
#include "sampling/minibatch.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace distgnn;

int main(int argc, char** argv) {
  const Options opts(argc, argv);

  bench::print_header("Aggregation work: mini-batch sampling (Dist-DGL) vs full batch (DistGNN)",
                      "Tables 7 + 8 (OGBN-Products; B ops per hop / per socket)");

  // ---- Table 7: mini-batch sampling work ----
  const std::vector<HopWork> hops{
      {"Hop-2", 233'692, 5, 100},
      {"Hop-1", 30'214, 10, 256},
      {"Hop-0", 2'000, 15, 256},
  };
  TextTable t7({"hop", "#vertices", "avg deg", "#feats", "work (B ops)"});
  for (const HopWork& h : hops)
    t7.add_row({h.label, TextTable::fmt_int(h.vertices), TextTable::fmt(h.avg_degree, 0),
                TextTable::fmt_int(h.feats), TextTable::fmt(h.giga_ops(), 3)});
  const MiniBatchWork mb1 = minibatch_work(hops, 196'615, 2'000, 1);
  const MiniBatchWork mb16 = minibatch_work(hops, 196'615, 2'000, 16);
  t7.add_row({"1 mini-batch", "", "", "", TextTable::fmt(mb1.batch_ops / 1e9, 3)});
  t7.add_row({"1 socket (" + std::to_string(mb1.batches_per_socket) + " batches)", "", "", "",
              TextTable::fmt(mb1.socket_ops / 1e9, 2)});
  t7.add_row({"16 sockets (" + std::to_string(mb16.batches_per_socket) + " batches)", "", "", "",
              TextTable::fmt(mb16.socket_ops / 1e9, 2)});
  std::printf("%s", t7.render("Table 7: Dist-DGL mini-batch (batch 2000, fan-outs 15/10/5)").c_str());
  std::printf("Paper: 0.116 / 0.077 / 0.007 per hop; 0.202 per batch; 19.98 B (1 socket);\n"
              "1.41 B (16 sockets).\n");

  // ---- Table 8: full-batch work, as the paper charges it and on the output
  // frontier (the output hop computes only the training vertices: 196,615
  // on one socket, their clones at the training rate on a partition) ----
  constexpr std::int64_t kVertices = 2'449'029, kTrain = 196'615;
  TextTable t8({"sockets", "hop", "#vertices/part", "frontier #vertices", "avg deg", "#feats",
                "work (B ops)", "frontier work (B ops)"});
  for (const auto& [sockets, verts] :
       std::vector<std::pair<int, std::int64_t>>{{1, kVertices}, {16, 596'499}}) {
    const std::int64_t frontier = (verts * kTrain + kVertices / 2) / kVertices;
    const FullBatchWork fb = fullbatch_work(verts, 51.5, {100, 256, 256});
    const FullBatchWork ff = fullbatch_work(verts, 51.5, {100, 256, 256}, frontier);
    for (std::size_t i = 0; i < fb.hops.size(); ++i) {
      const HopWork& h = fb.hops[i];
      t8.add_row({TextTable::fmt_int(sockets), h.label, TextTable::fmt_int(h.vertices),
                  TextTable::fmt_int(ff.hops[i].vertices), TextTable::fmt(h.avg_degree, 1),
                  TextTable::fmt_int(h.feats), TextTable::fmt(h.giga_ops(), 2),
                  TextTable::fmt(ff.hops[i].giga_ops(), 2)});
    }
    t8.add_row({TextTable::fmt_int(sockets), "Full Batch", "", "", "", "",
                TextTable::fmt(fb.socket_ops / 1e9, 2), TextTable::fmt(ff.socket_ops / 1e9, 2)});
  }
  std::printf("%s", t8.render("Table 8: DistGNN full batch (complete neighbourhoods)").c_str());
  std::printf("Paper: 12.61 + 32.29 + 32.29 = 77.19 B (1 socket); 18.80 B (16 sockets).\n"
              "Full batch does ~4x (1 socket) to ~13x (16 sockets) more aggregation work.\n"
              "The output frontier cuts Hop-0 to the training vertices: 47.49 B (1 socket),\n"
              "11.57 B (16 sockets).\n\n");

  // ---- (b) sanity: our sampler's actual sampled-edge counts on the sim ----
  const double scale = bench::default_scale(opts, 0.125);
  const Dataset ds = bench::load("ogbn-products-sim", scale);
  Rng rng(3);
  std::vector<vid_t> train;
  for (vid_t v = 0; v < ds.num_vertices(); ++v)
    if (ds.train_mask[static_cast<std::size_t>(v)]) train.push_back(v);
  const auto batches = make_batches(train, 512, rng);
  const std::vector<int> fanouts{5, 10, 15};
  const MiniBatch sample = sample_minibatch(ds.graph.in_csr(), batches.front(), fanouts, rng);
  TextTable meas({"layer", "#dst vertices", "sampled edges"});
  for (std::size_t l = 0; l < sample.blocks.size(); ++l)
    meas.add_row({"block " + std::to_string(l),
                  TextTable::fmt_int(sample.blocks[l].num_dst),
                  TextTable::fmt_int(sample.blocks[l].num_sampled_edges())});
  std::printf("%s", meas.render("Measured sampler expansion on ogbn-products-sim (one batch of 512)").c_str());
  std::printf("Expansion grows toward the input layer exactly as Table 7's vertex column does.\n");
  return 0;
}
