// Regenerates Figure 5.1: the node degree distribution.
//
// Paper shape: a heavy-tailed distribution where "only 0.2% of the ASes has
// more than 200 neighbors, and less than 1% has more than 40"; the
// high-degree nodes are the tier-1 core.
#include <iostream>

#include "bench_common.hpp"
#include "eval/dataset_report.hpp"

namespace miro::bench {

void fig_5_1_degree_distribution(Run& run) {
  for (const std::string& profile : run.args().profiles()) {
    const topo::AsGraph& graph = run.graph(profile);
    const Stopwatch clock;
    eval::print_degree_distribution(profile, graph, std::cout);
    run.add(profile + ".elapsed", clock.ms(), "ms");
    std::cout << "\n";
    run.add_memory_rows(profile, graph);
  }
}

}  // namespace miro::bench
