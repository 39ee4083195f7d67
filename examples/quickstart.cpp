// Quickstart: the dissertation's running example (Figures 1.1 / 3.1 / 4.2)
// end to end.
//
// Six ASes A..F. BGP gives AS A the default path A-B-E-F toward F. A does
// not want its traffic to cross AS E, so it pulls alternate routes from AS B
// over the MIRO control plane, accepts the offer B-C-F, gets tunnel id and
// installs the data-plane state, after which A's packets to F travel
// A-B-C-F — while everyone else's traffic is untouched.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "bgp/table_format.hpp"
#include "core/alternates.hpp"
#include "core/protocol.hpp"
#include "dataplane/forwarding.hpp"
#include "topology/figure31.hpp"

using namespace miro;

int main() {
  // --- The Figure 3.1 topology -------------------------------------------
  const topo::Figure31 fig;
  const topo::AsGraph& graph = fig.graph;
  const auto a = fig.a, b = fig.b, c = fig.c, d = fig.d, e = fig.e, f = fig.f;
  auto name = [&graph](topo::NodeId node) {
    return std::string(1, static_cast<char>('A' + graph.as_number(node) - 1));
  };

  // --- Default BGP routes -------------------------------------------------
  bgp::StableRouteSolver solver(graph);
  const bgp::RoutingTree tree = solver.solve(f);
  std::cout << "Default BGP routes toward F:\n";
  for (topo::NodeId node : {a, b, c, d, e}) {
    std::cout << "  " << name(node) << ": ";
    for (topo::NodeId hop : tree.path_of(node)) std::cout << name(hop);
    std::cout << "  (" << bgp::to_string(tree.route_class(node))
              << " route)\n";
  }

  // --- The problem: A's default path crosses E ----------------------------
  std::cout << "\nAS A's BGP table toward F's prefix (Table 1.1 style):\n";
  bgp::print_bgp_table(bgp::bgp_table_for(solver, tree, a), std::cout);
  std::cout << "AS A wants to avoid AS E, but every candidate crosses it.\n";

  // --- Pull-based negotiation over the control plane ----------------------
  core::RouteStore store(graph);
  sim::Scheduler scheduler;
  core::Bus bus(scheduler);
  core::ResponderConfig responder_config;
  responder_config.policy = core::ExportPolicy::RespectExport;
  core::MiroAgent agent_a(a, store, bus);
  core::MiroAgent agent_b(b, store, bus, responder_config);

  std::cout << "\nA -> B: RouteRequest(destination=F, avoid=E)\n";
  std::optional<core::NegotiationOutcome> outcome;
  agent_a.request(b, /*arrival_neighbor=*/a, /*destination=*/f, /*avoid=*/e,
                  /*max_cost=*/std::nullopt,
                  [&outcome](const core::NegotiationOutcome& o) {
                    outcome = o;
                  });
  scheduler.run_until(1000);
  if (!outcome || !outcome->established) {
    std::cout << "negotiation failed\n";
    return 1;
  }
  const core::TunnelRecord* record =
      agent_b.tunnels().find(outcome->tunnel_id);
  std::cout << "B -> A: offers, accept, TunnelConfirm(id="
            << outcome->tunnel_id << ")\n";
  std::cout << "Tunnel " << outcome->tunnel_id << " at B bound to route ";
  for (topo::NodeId hop : record->bound_route.path) std::cout << name(hop);
  std::cout << ", price " << record->cost << "\n";

  // --- Data plane ----------------------------------------------------------
  dataplane::AsLevelDataPlane plane(store);
  // Recreate the negotiated spliced path A + (B C F) for installation.
  core::AlternatesEngine alternates(solver);
  const auto analytic =
      alternates.avoid_as(tree, a, e, core::ExportPolicy::RespectExport);
  plane.install_tunnel(*analytic.chosen);

  auto show_trace = [&](topo::NodeId source, const char* label) {
    net::Packet packet(plane.host_address(source), plane.host_address(f));
    const auto trace = plane.trace(packet, source);
    std::cout << "  " << label << ": ";
    for (std::size_t i = 0; i < trace.hops.size(); ++i) {
      if (i > 0) std::cout << " -> ";
      std::cout << name(trace.hops[i].as);
      if (trace.hops[i].action == dataplane::TraceHop::Action::Encapsulate)
        std::cout << "(encap tid=" << *trace.hops[i].tunnel_id << ")";
      if (trace.hops[i].action == dataplane::TraceHop::Action::Decapsulate)
        std::cout << "(decap)";
    }
    std::cout << (trace.traversed(e) ? "   [crosses E]" : "   [avoids E]")
              << "\n";
  };
  std::cout << "\nPacket traces after tunnel installation:\n";
  show_trace(a, "A -> F");
  show_trace(d, "D -> F (untouched default)");
  return 0;
}
