// Avoiding an AS at Internet scale (the Section 5.3 application as a user
// would run it).
//
// Generates a synthetic Internet, picks (source, destination) pairs whose
// default BGP path crosses a designated "untrusted" AS, and walks through
// the MIRO procedure: check plain-BGP candidates, then negotiate down the
// default path under each export policy. Prints each negotiation's
// footprint and the resulting path.
//
// Usage: ./build/examples/avoid_as [--profile gao2005] [--scale 0.25]
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/alternates.hpp"
#include "topology/generator.hpp"

using namespace miro;

int main(int argc, char** argv) {
  try {
  std::string profile = "gao2005";
  double scale = 0.25;
  // A missing or malformed value and an unknown flag throw, which exits 2
  // below (topo::profile rejects a non-positive scale the same way).
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    require(flag == "--profile" || flag == "--scale", "unknown flag " + flag);
    require(i + 1 < argc, "missing value for " + flag);
    const std::string text = argv[i + 1];
    if (flag == "--profile") {
      profile = text;
    } else {
      const std::optional<double> parsed = parse_finite(text);
      require(parsed.has_value(),
              "--scale expects a number, got '" + text + "'");
      scale = *parsed;
    }
  }

  const topo::AsGraph graph = topo::generate(topo::profile(profile, scale));
  std::cout << "Generated '" << profile << "' topology: "
            << graph.node_count() << " ASes, " << graph.edge_count()
            << " links\n\n";
  bgp::StableRouteSolver solver(graph);
  core::AlternatesEngine engine(solver);

  Rng rng(2024);
  int shown = 0;
  for (int attempt = 0; attempt < 3000 && shown < 5; ++attempt) {
    const auto dest =
        static_cast<topo::NodeId>(rng.next_below(graph.node_count()));
    const auto source =
        static_cast<topo::NodeId>(rng.next_below(graph.node_count()));
    if (source == dest) continue;
    const bgp::RoutingTree tree = solver.solve(dest);
    if (!tree.reachable(source)) continue;
    const auto path = tree.path_of(source);
    if (path.size() < 4) continue;
    const topo::NodeId avoid = path[2];
    if (graph.has_edge(source, avoid) || avoid == dest) continue;

    ++shown;
    std::cout << "case " << shown << ": AS" << graph.as_number(source)
              << " -> AS" << graph.as_number(dest) << ", avoiding AS"
              << graph.as_number(avoid) << "\n  default path: ";
    for (auto hop : path) std::cout << graph.as_number(hop) << " ";
    std::cout << "\n";

    for (core::ExportPolicy policy : core::kAllPolicies) {
      const auto result = engine.avoid_as(tree, source, avoid, policy);
      std::cout << "  policy " << core::to_string(policy)
                << core::suffix(policy) << ": ";
      if (!result.success) {
        std::cout << "FAILED after contacting " << result.ases_contacted
                  << " AS(es), " << result.paths_received
                  << " candidate path(s) received\n";
        continue;
      }
      if (result.bgp_success) {
        std::cout << "plain BGP already offers a clean route: ";
      } else {
        std::cout << "tunnel via AS"
                  << graph.as_number(result.chosen->responder) << " ("
                  << result.ases_contacted << " negotiation(s), "
                  << result.paths_received << " path(s) received): ";
      }
      for (auto hop : result.chosen->as_path)
        std::cout << graph.as_number(hop) << " ";
      std::cout << "\n";
    }
    std::cout << "\n";
  }
  return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
