// Methodology check (Section 5.1): relationship-inference accuracy.
//
// The dissertation annotates measured topologies with relationships
// inferred by Gao's algorithm and by the Subramanian/Agarwal rank
// algorithm, citing Mao et al. that "the Gao algorithm produces more
// accurate inference results". On synthetic topologies the planted ground
// truth is known, so the claim is directly measurable: generate a profile,
// compute the stable BGP paths seen from a set of vantage points (what
// RouteViews collects), run both inference algorithms, and score them.
#include <iostream>

#include "bench_common.hpp"
#include "bgp/route_solver.hpp"
#include "common/table.hpp"
#include "topology/inference.hpp"

namespace miro::bench {

void inference_accuracy(Run& run) {
  TextTable table({"profile", "vantages", "paths", "algorithm",
                   "edges seen", "accuracy", "missing", "spurious"});
  for (const std::string& profile_name : run.args().profiles()) {
    const topo::AsGraph& truth = run.graph(profile_name);
    run.add_memory_rows(profile_name, truth);
    const Stopwatch clock;
    bgp::StableRouteSolver solver(truth);

    // RouteViews-style observation: full tables from a few dozen vantages.
    const std::size_t vantage_count = 32;
    std::vector<topo::AsPath> paths;
    for (std::size_t v = 0; v < vantage_count; ++v) {
      const auto dest = static_cast<topo::NodeId>(
          (v * truth.node_count()) / vantage_count);
      const bgp::RoutingTree tree = solver.solve(dest);
      for (topo::NodeId source = 0; source < truth.node_count(); ++source) {
        if (source == dest || !tree.reachable(source)) continue;
        topo::AsPath path;
        for (topo::NodeId node : tree.path_of(source))
          path.push_back(truth.as_number(node));
        paths.push_back(std::move(path));
      }
    }

    struct Inference {
      const char* name;
      topo::AsGraph inferred;
    };
    const Inference inferences[] = {{"gao", topo::infer_gao(paths)},
                                    {"rank", topo::infer_rank(paths)}};
    for (const Inference& inference : inferences) {
      const auto accuracy =
          topo::compare_inference(truth, inference.inferred);
      table.add_row(
          {profile_name, std::to_string(vantage_count),
           std::to_string(paths.size()), inference.name,
           std::to_string(accuracy.classified_correct +
                          accuracy.classified_wrong),
           TextTable::percent(accuracy.accuracy()),
           std::to_string(accuracy.edges_missing),
           std::to_string(accuracy.edges_spurious)});
      run.add(profile_name + "." + inference.name + ".accuracy",
              accuracy.accuracy(), "fraction");
    }
    run.add(profile_name + ".elapsed", clock.ms(), "ms");
  }
  std::cout << "Relationship-inference accuracy against planted ground "
               "truth (Section 5.1 methodology)\n";
  table.print(std::cout);
  std::cout << "(expected: Gao classifies most observed edges correctly and "
               "beats the rank algorithm, matching Mao et al.'s finding the "
               "dissertation cites)\n";
}

}  // namespace miro::bench
