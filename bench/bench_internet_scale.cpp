// Internet-scale topology bench: generation and solve cost at full scale.
//
// The dissertation's evaluation runs on measured RouteViews snapshots with
// tens of thousands of ASes; this bench proves the pipeline holds up at
// that size and pins the cost down as gated rows. Per profile it measures
//   <profile>.generate_ms        wall-clock to generate + freeze the graph
//   <profile>.solve_ms_per_dest  mean serial solve time per destination
//   <profile>.graph_bytes / .bytes_per_edge    frozen CSR footprint
//   <profile>.trees_bytes / .bytes_per_route   routing-state footprint
// plus unitless node/edge/route counts. Byte and count rows come from
// deterministic walks (bit-identical at any thread count, exact-matched by
// the --values-only determinism gate); the ms rows ride the loose time
// threshold. Solves are intentionally serial so the per-destination number
// is a clean single-core cost, not a parallel-speedup artifact.
//
// With the suite's --save PATH it also writes the generated graph in CAIDA
// pipe format, for downstream consumers (the CI smoke job feeds it to
// miro_lint --topology). Unlike the other benches it reads no shared input:
// the generation and the serial solves are what it measures.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bgp/route_solver.hpp"
#include "common/arena.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "topology/serialization.hpp"

namespace miro::bench {

void internet_scale(Run& run) {
  const SuiteArgs& args = run.args();
  std::cout << "Internet-scale topology: generation and solve cost\n";
  TextTable table({"profile", "nodes", "edges", "gen ms", "solve ms/dest",
                   "B/edge", "B/route"});

  for (const std::string& name : args.profiles()) {
    const topo::GeneratorParams params = topo::profile(name, args.scale);

    const Stopwatch gen_clock;
    const topo::AsGraph graph = topo::generate(params);
    const double generate_ms = gen_clock.ms();

    const std::size_t n = graph.node_count();
    run.add(name + ".nodes", static_cast<double>(n), "count");
    run.add(name + ".edges", static_cast<double>(graph.edge_count()), "count");
    run.add(name + ".generate_ms", generate_ms, "ms");
    run.add_memory_rows(name, graph);

    // Destination sample drawn exactly like ExperimentPlan's, solved
    // serially into one arena (the RouteStore layout).
    Rng rng(args.seed);
    const std::size_t samples = std::min(args.dests, n);
    std::vector<topo::NodeId> destinations;
    for (std::size_t index : rng.sample_indices(n, samples))
      destinations.push_back(static_cast<topo::NodeId>(index));
    std::sort(destinations.begin(), destinations.end());

    const bgp::StableRouteSolver solver(graph);
    Arena arena(n * bgp::RoutingTree::bytes_per_node());
    std::vector<bgp::RoutingTree> trees;
    trees.reserve(destinations.size());
    const Stopwatch solve_clock;
    for (topo::NodeId destination : destinations)
      trees.push_back(solver.solve(destination, &arena));
    const double solve_ms = solve_clock.ms();
    const double solve_ms_per_dest =
        destinations.empty()
            ? 0.0
            : solve_ms / static_cast<double>(destinations.size());
    run.add(name + ".solve_ms_per_dest", solve_ms_per_dest, "ms");

    std::uint64_t routes = 0;
    std::uint64_t tree_bytes = 0;
    for (const bgp::RoutingTree& tree : trees) {
      routes += tree.reachable_count();
      tree_bytes += tree.memory_bytes();
    }
    run.add(name + ".routes", static_cast<double>(routes), "count");
    run.add(name + ".trees_bytes", static_cast<double>(tree_bytes), "bytes");
    if (routes > 0) {
      run.add(name + ".bytes_per_route",
              static_cast<double>(tree_bytes) / static_cast<double>(routes),
              "bytes/route");
    }
    if (obs::MemoryRegistry* mem = obs::memory()) {
      mem->account("eval/trees").set_current(tree_bytes);
      mem->sample_rss();
    }

    table.add_row(
        {name, std::to_string(n), std::to_string(graph.edge_count()),
         TextTable::num(generate_ms, 1), TextTable::num(solve_ms_per_dest, 2),
         TextTable::num(static_cast<double>(graph.memory_bytes()) /
                        static_cast<double>(graph.edge_count())),
         TextTable::num(routes == 0 ? 0.0
                                    : static_cast<double>(tree_bytes) /
                                          static_cast<double>(routes))});

    if (!args.save.empty()) {
      topo::save_file(graph, args.save);
      std::cout << "saved " << name << " topology to " << args.save << "\n";
    }
  }

  table.print(std::cout);
}

}  // namespace miro::bench
