// Inbound traffic engineering for a multi-homed stub (the Section 5.4
// application).
//
// A stub AS with several providers measures how inbound traffic (uniform
// unit per source) splits across its incoming links, finds its best "power
// node" — an AS that many sources' default paths traverse — and negotiates
// with it to switch to an alternate route entering over a different link.
// Prints the ingress distribution before and after, under the
// independent-selection (lower-bound) model.
//
// Usage: ./build/examples/load_balance [--scale 0.25]
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/protocol.hpp"
#include "eval/experiments.hpp"

using namespace miro;

namespace {

void print_counts(const topo::AsGraph& graph, const eval::InboundView& view) {
  for (topo::NodeId link = 0; link < view.ingress.size(); ++link) {
    const std::size_t count = view.ingress[link];
    if (count == 0) continue;
    std::cout << "    via provider AS" << graph.as_number(link) << ": "
              << count << " sources ("
              << (100.0 * static_cast<double>(count) /
                  static_cast<double>(view.total))
              << "%)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
  double scale = 0.25;
  // A missing or malformed value and an unknown flag throw, which exits 2
  // below (topo::profile rejects a non-positive scale the same way).
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    require(flag == "--scale", "unknown flag " + flag);
    require(i + 1 < argc, "missing value for " + flag);
    const std::string text = argv[i + 1];
    const std::optional<double> parsed = parse_finite(text);
    require(parsed.has_value(), "--scale expects a number, got '" + text + "'");
    scale = *parsed;
  }

  const topo::AsGraph graph =
      topo::generate(topo::profile("gao2005", scale));
  bgp::StableRouteSolver solver(graph);

  // Pick a multi-homed stub with a lopsided inbound split.
  for (topo::NodeId stub = graph.node_count(); stub-- > 0;) {
    if (!graph.is_multi_homed_stub(stub)) continue;
    const bgp::RoutingTree tree = solver.solve(stub);
    const eval::InboundView before = eval::measure_inbound(graph, tree);
    const std::size_t providers = before.ingress_links();
    if (providers < 2) continue;
    const std::size_t max_count =
        *std::max_element(before.ingress.begin(), before.ingress.end());
    // Want >= 70% on one link.
    if (max_count * 10 < before.total * 7) continue;

    std::cout << "Multi-homed stub AS" << graph.as_number(stub) << " with "
              << providers << " providers; inbound before:\n";
    print_counts(graph, before);

    // Power node: the AS most sources route through (lowest id on a tie).
    const auto power = static_cast<topo::NodeId>(
        std::max_element(before.traverse.begin(), before.traverse.end()) -
        before.traverse.begin());
    std::cout << "  power node: AS" << graph.as_number(power) << " (carries "
              << before.traverse[power] << " sources, "
              << tree.path_length(power) << " hop(s) from the stub)\n";

    // Find the power node's alternate entering over a different link and
    // negotiate the switch over the MIRO control plane (Section 3.3's
    // downstream-initiated negotiation).
    const topo::NodeId old_ingress = tree.ingress_neighbor(power);
    for (const bgp::Route& alt : solver.candidates_at(tree, power)) {
      const topo::NodeId new_ingress = alt.path[alt.path.size() - 2];
      if (new_ingress == old_ingress) continue;

      core::RouteStore store(graph);
      sim::Scheduler scheduler;
      core::Bus bus(scheduler);
      core::MiroAgent stub_agent(stub, store, bus);
      core::MiroAgent power_agent(power, store, bus);
      bool accepted = false;
      std::vector<topo::NodeId> agreed_path;
      stub_agent.request_switch(
          power, /*destination=*/stub, /*desired_next_hop=*/alt.path[1],
          /*compensation=*/200,
          [&](bool ok, const std::vector<topo::NodeId>& path) {
            accepted = ok;
            agreed_path = path;
          });
      scheduler.run_until(1000);
      if (!accepted) {
        std::cout << "  power node declined the switch to ";
        for (auto hop : alt.path) std::cout << graph.as_number(hop) << " ";
        std::cout << "\n";
        continue;
      }
      std::cout << "  negotiated over the control plane: power node "
                   "switches to ";
      for (auto hop : agreed_path) std::cout << graph.as_number(hop) << " ";
      std::cout << "(" << bgp::to_string(alt.route_class)
                << " route, enters via AS" << graph.as_number(new_ingress)
                << ")\n";
      const bgp::RoutingTree pinned =
          solver.solve_pinned(stub, bgp::PinnedRoute{power, alt.path[1]});
      std::cout << "  inbound after (independent re-selection by every "
                   "other AS):\n";
      print_counts(graph, eval::measure_inbound(graph, pinned));
      return 0;
    }
    std::cout << "  (no alternate over a different link at this power "
                 "node; trying the next stub)\n\n";
  }
  std::cout << "no suitable stub found at this scale\n";
  return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
