// Regenerates Table 5.1: attributes of the data sets.
//
// Paper values (measured RouteViews snapshots):
//   Gao 2000: 8829 nodes, 17793 edges, 16531 P/C, 1031 peer, 231 sibling
//   Gao 2003: 16130 / 34231 / 30649 / 3062 / 520
//   Gao 2005: 20930 / 44998 / 40558 / 3753 / 687
//   Agarwal 2004: 16921 / 38282 / 34552 / 3553 / 177
// The synthetic profiles reproduce the edge-per-node density and the
// relationship mix at the requested scale.
#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "eval/dataset_report.hpp"

namespace miro::bench {

void table_5_1_datasets(Run& run) {
  std::vector<std::pair<std::string, const topo::AsGraph*>> graphs;
  for (const std::string& profile : run.args().profiles())
    graphs.emplace_back(profile, &run.graph(profile));
  const Stopwatch clock;
  eval::print_dataset_table(graphs, run.args().scale, std::cout);
  run.add("dataset_table.elapsed", clock.ms(), "ms");
  for (const auto& [profile, graph] : graphs)
    run.add_memory_rows(profile, *graph);
}

}  // namespace miro::bench
