// Failure-injection sweeps: the message-level BGP protocol under randomized
// link failures and restorations on generated topologies, cross-checked
// against the closed-form solver on the degraded graph after every event.
#include <gtest/gtest.h>

#include <set>

#include "bgp/route_solver.hpp"
#include "bgp/session_bgp.hpp"
#include "topology/generator.hpp"

namespace miro::bgp {
namespace {

/// Rebuilds the graph without the given undirected links.
topo::AsGraph degraded_copy(
    const topo::AsGraph& graph,
    const std::set<std::pair<topo::NodeId, topo::NodeId>>& removed) {
  topo::GraphBuilder builder;
  for (topo::NodeId id = 0; id < graph.node_count(); ++id)
    builder.add_as(graph.as_number(id));
  for (topo::NodeId id = 0; id < graph.node_count(); ++id) {
    for (const topo::Neighbor& n : graph.neighbors(id)) {
      if (n.node < id) continue;  // each link once, from the lower id
      const auto key = std::make_pair(id, n.node);
      if (removed.find(key) != removed.end()) continue;
      switch (n.rel) {
        case topo::Relationship::Customer:
          builder.add_customer_provider(id, n.node);
          break;
        case topo::Relationship::Provider:
          builder.add_customer_provider(n.node, id);
          break;
        case topo::Relationship::Peer:
          builder.add_peer(id, n.node);
          break;
        case topo::Relationship::Sibling:
          builder.add_sibling(id, n.node);
          break;
      }
    }
  }
  return std::move(builder).build();
}

class FailureSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureSweep, ProtocolTracksSolverThroughFailuresAndRepairs) {
  topo::GeneratorParams params = topo::profile("tiny");
  params.node_count = 90;
  params.seed = GetParam();
  const topo::AsGraph graph = topo::generate(params);
  const topo::NodeId destination = 5;

  sim::Scheduler scheduler;
  SessionedBgpNetwork network(graph, destination, scheduler);
  network.start();
  scheduler.run_all(5'000'000);

  // Collect candidate links (skip links incident to the destination half the
  // time so both partition-ish and transit failures occur).
  std::vector<std::pair<topo::NodeId, topo::NodeId>> links;
  for (topo::NodeId id = 0; id < graph.node_count(); ++id)
    for (const topo::Neighbor& n : graph.neighbors(id))
      if (n.node > id) links.emplace_back(id, n.node);

  Rng rng(GetParam() * 7919 + 13);
  std::set<std::pair<topo::NodeId, topo::NodeId>> down;
  for (int event = 0; event < 12; ++event) {
    // Randomly fail a live link or restore a dead one.
    const bool restore = !down.empty() && rng.chance(0.4);
    if (restore) {
      auto it = down.begin();
      std::advance(it, static_cast<long>(rng.next_below(down.size())));
      network.restore_link(it->first, it->second);
      down.erase(it);
    } else {
      const auto& link = links[rng.next_below(links.size())];
      if (down.count(link)) continue;
      down.insert(link);
      network.fail_link(link.first, link.second);
    }
    scheduler.run_all(5'000'000);

    // The protocol state must equal the stable solution on the degraded
    // graph, node by node.
    const topo::AsGraph degraded = degraded_copy(graph, down);
    StableRouteSolver solver(degraded);
    const RoutingTree tree = solver.solve(destination);
    for (topo::NodeId node = 0; node < graph.node_count(); ++node) {
      ASSERT_EQ(network.has_route(node), tree.reachable(node))
          << "node " << node << " after event " << event << " seed "
          << GetParam();
      if (tree.reachable(node)) {
        EXPECT_EQ(network.path_of(node), tree.path_of(node))
            << "node " << node << " after event " << event;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace miro::bgp
