// Table 4: average replication factor of Libra vertex-cut partitioning vs
// the number of partitions, per dataset, plus two controls the paper's
// narrative relies on: a random edge partitioner (Libra should beat it) and
// a clustered-vs-uniform pair at equal degree (clustering should lower the
// replication factor, the Proteins effect).
#include <cstdio>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "partition/libra.hpp"
#include "partition/partition_stats.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace distgnn;

int main(int argc, char** argv) {
  const Options opts(argc, argv);
  const double scale = bench::default_scale(opts, 0.125);

  bench::print_header("Libra vertex-cut replication factor vs #partitions",
                      "Table 4 (average replication factor; balanced edges)");

  const part_t part_counts[] = {2, 4, 8, 16, 32};
  TextTable table({"dataset", "P=2", "P=4", "P=8", "P=16", "P=32", "edge balance @16"});
  for (const char* name :
       {"reddit-sim", "ogbn-products-sim", "proteins-sim", "ogbn-papers-sim"}) {
    const Dataset ds = bench::load(name, scale);
    std::vector<std::string> row{name};
    double balance16 = 0;
    for (const part_t p : part_counts) {
      const PartitionQuality q =
          evaluate_partition(ds.graph.coo(), partition_libra(ds.graph.coo(), p));
      row.push_back(TextTable::fmt(q.replication_factor, 2));
      if (p == 16) balance16 = q.edge_balance;
    }
    row.push_back(TextTable::fmt(balance16, 3));
    table.add_row(row);
  }
  std::printf("%s", table.render("Average replication factor (Libra)").c_str());

  // Control 1: Libra vs random edge assignment at 8 partitions.
  TextTable control({"dataset", "Libra rep @8", "Random rep @8"});
  for (const char* name : {"reddit-sim", "ogbn-papers-sim"}) {
    const Dataset ds = bench::load(name, scale);
    control.add_row(
        {name,
         TextTable::fmt(
             evaluate_partition(ds.graph.coo(), partition_libra(ds.graph.coo(), 8)).replication_factor,
             2),
         TextTable::fmt(
             evaluate_partition(ds.graph.coo(), partition_random(ds.graph.coo(), 8)).replication_factor,
             2)});
  }
  std::printf("%s", control.render("Control: Libra vs random edge-cut").c_str());

  // Control 2: clustering effect at equal size/degree (the Proteins story).
  SbmParams sp;
  sp.num_vertices = 8192;
  sp.num_blocks = 64;
  sp.avg_degree = 16;
  sp.in_out_ratio = 300;
  const EdgeList clustered = generate_sbm(sp).edges;
  const EdgeList uniform = generate_erdos_renyi(8192, 8192 * 8, 3);
  TextTable clus({"graph (n=8192, deg=16)", "Libra rep @8"});
  clus.add_row({"clustered (SBM, 83% intra)",
                TextTable::fmt(evaluate_partition(clustered, partition_libra(clustered, 8)).replication_factor, 2)});
  clus.add_row({"uniform (Erdos-Renyi)",
                TextTable::fmt(evaluate_partition(uniform, partition_libra(uniform, 8)).replication_factor, 2)});
  std::printf("%s", clus.render("Control: community structure lowers replication").c_str());

  std::printf("\nPaper reference (Table 4): Reddit 1.75/2.94/4.66/6.93 at 2/4/8/16;\n"
              "Proteins lowest (1.33..2.37) thanks to protein-family clusters; replication\n"
              "grows with partition count everywhere. proteins-sim's magnitude comes from\n"
              "its SBM homophily, set in its spec in graph/datasets.cpp.\n");
  return 0;
}
