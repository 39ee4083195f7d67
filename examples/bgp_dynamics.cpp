// BGP dynamics and MIRO soft state under failures (Sections 2.2.2 and 4.3).
//
// Runs the message-level BGP protocol on the Figure 3.1 topology, watches
// the A<->B tunnel (bound to B-C-F, negotiated to avoid E) with the tunnel
// monitor, then fails the link C-F. The withdrawals ripple through the
// network, C's route swings onto C-E-F — through the very AS the tunnel
// exists to avoid — and the monitor tears the tunnel down, exactly the
// life-cycle the dissertation describes.
//
// Build & run:  ./build/examples/bgp_dynamics
#include <iostream>

#include "bgp/session_bgp.hpp"
#include "bgp/table_format.hpp"
#include "core/tunnel_monitor.hpp"
#include "topology/figure31.hpp"

using namespace miro;

int main() {
  const topo::Figure31 fig;
  const topo::AsGraph& graph = fig.graph;
  const auto a = fig.a, b = fig.b, c = fig.c, d = fig.d, e = fig.e, f = fig.f;
  auto name = [&graph](topo::NodeId node) {
    return std::string(1, static_cast<char>('A' + graph.as_number(node) - 1));
  };
  auto path_text = [&](const std::vector<topo::NodeId>& path) {
    std::string text;
    for (topo::NodeId hop : path) text += name(hop);
    return text.empty() ? std::string("(none)") : text;
  };

  sim::Scheduler scheduler;
  bgp::SessionedBgpNetwork network(graph, f, scheduler);

  // The Figure 3.1 tunnel, already negotiated: A reaches F via B over BCF.
  core::TunnelMonitor monitor;
  monitor.watch({/*id=*/7, /*upstream=*/a, /*responder=*/b,
                 /*destination=*/f, /*bound_path=*/{b, c, f},
                 /*must_avoid=*/e, /*strict_binding=*/false});

  network.set_observer([&](topo::NodeId node, bgp::PathId best) {
    std::optional<std::vector<topo::NodeId>> path;
    if (best != bgp::kNullPath) path = network.paths().materialize(best);
    for (const auto& tunnel : monitor.on_downstream_change(node, f, path)) {
      std::cout << "  [t=" << scheduler.now() << "] tunnel " << tunnel.id
                << " TORN DOWN: the route beyond " << name(tunnel.responder)
                << " now runs through " << name(*tunnel.must_avoid) << "\n";
    }
  });

  std::cout << "Phase 1: initial convergence\n";
  network.start();
  scheduler.run_all();
  std::cout << "  updates sent: " << network.stats().updates_sent
            << ", withdrawals: " << network.stats().withdrawals_sent << "\n";
  for (topo::NodeId node : {a, b, c, d, e})
    std::cout << "  " << name(node) << " -> F: "
              << path_text(network.path_of(node)) << "\n";
  std::cout << "  tunnel 7 (A via B over BCF, avoiding E): watched="
            << monitor.watched_count() << "\n";

  std::cout << "\nPhase 2: link C-F fails\n";
  const auto updates_before = network.stats().updates_sent;
  network.fail_link(c, f);
  scheduler.run_all();
  std::cout << "  reconvergence traffic: "
            << (network.stats().updates_sent - updates_before)
            << " updates, " << network.stats().withdrawals_sent
            << " withdrawals total\n";
  for (topo::NodeId node : {a, b, c, d, e})
    std::cout << "  " << name(node) << " -> F: "
              << path_text(network.path_of(node)) << "\n";
  std::cout << "  tunnels still watched: " << monitor.watched_count()
            << "\n";

  std::cout << "\nPhase 3: link C-F restored\n";
  network.restore_link(c, f);
  scheduler.run_all();
  for (topo::NodeId node : {a, b, c})
    std::cout << "  " << name(node) << " -> F: "
              << path_text(network.path_of(node)) << "\n";
  std::cout << "  (A would now re-negotiate the tunnel; see quickstart)\n";
  return 0;
}
