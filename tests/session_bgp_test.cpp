#include <gtest/gtest.h>

#include "bgp/route_solver.hpp"
#include "bgp/session_bgp.hpp"
#include "core/tunnel_monitor.hpp"
#include "scenarios.hpp"
#include "topology/generator.hpp"

namespace miro::bgp {
namespace {

using test::Figure31Topology;

struct SessionHarness {
  Figure31Topology fig;
  sim::Scheduler scheduler;
  SessionedBgpNetwork network{fig.graph, fig.f, scheduler};

  void run() { scheduler.run_all(); }
};

TEST(SessionBgp, ConvergesToFigure31Routes) {
  SessionHarness h;
  h.network.start();
  h.run();
  EXPECT_EQ(h.network.path_of(h.fig.a),
            (std::vector<topo::NodeId>{h.fig.a, h.fig.b, h.fig.e, h.fig.f}));
  EXPECT_EQ(h.network.path_of(h.fig.b),
            (std::vector<topo::NodeId>{h.fig.b, h.fig.e, h.fig.f}));
  EXPECT_EQ(h.network.path_of(h.fig.c),
            (std::vector<topo::NodeId>{h.fig.c, h.fig.f}));
  EXPECT_GT(h.network.stats().updates_sent, 0u);
}

TEST(SessionBgp, MatchesSolverOnGeneratedTopology) {
  topo::GeneratorParams params = topo::profile("tiny");
  params.node_count = 100;
  const topo::AsGraph graph = topo::generate(params);
  StableRouteSolver solver(graph);
  for (topo::NodeId dest : {topo::NodeId{0}, topo::NodeId{50}}) {
    sim::Scheduler scheduler;
    SessionedBgpNetwork network(graph, dest, scheduler);
    network.start();
    scheduler.run_all(2'000'000);
    const RoutingTree tree = solver.solve(dest);
    for (topo::NodeId node = 0; node < graph.node_count(); ++node) {
      ASSERT_EQ(network.has_route(node), tree.reachable(node))
          << "node " << node;
      if (tree.reachable(node)) {
        EXPECT_EQ(network.path_of(node), tree.path_of(node))
            << "node " << node << " dest " << dest;
      }
    }
  }
}

TEST(SessionBgp, LinkFailureWithdrawsAndReroutes) {
  SessionHarness h;
  h.network.start();
  h.run();
  // Fail E-F: E loses its direct customer route; B should fall back to its
  // peer route via C; A follows.
  h.network.fail_link(h.fig.e, h.fig.f);
  h.run();
  ASSERT_TRUE(h.network.has_route(h.fig.b));
  EXPECT_EQ(h.network.path_of(h.fig.b),
            (std::vector<topo::NodeId>{h.fig.b, h.fig.c, h.fig.f}));
  ASSERT_TRUE(h.network.has_route(h.fig.e));
  // E now reaches F through its peer C.
  EXPECT_EQ(h.network.path_of(h.fig.e),
            (std::vector<topo::NodeId>{h.fig.e, h.fig.c, h.fig.f}));
  ASSERT_TRUE(h.network.has_route(h.fig.a));
  EXPECT_EQ(h.network.path_of(h.fig.a).back(), h.fig.f);
  EXPECT_GT(h.network.stats().withdrawals_sent, 0u);
}

TEST(SessionBgp, LinkRestorationReconverges) {
  SessionHarness h;
  h.network.start();
  h.run();
  const auto original_b = h.network.path_of(h.fig.b);
  h.network.fail_link(h.fig.e, h.fig.f);
  h.run();
  ASSERT_NE(h.network.path_of(h.fig.b), original_b);
  h.network.restore_link(h.fig.e, h.fig.f);
  h.run();
  EXPECT_EQ(h.network.path_of(h.fig.b), original_b);
  EXPECT_EQ(h.network.path_of(h.fig.a),
            (std::vector<topo::NodeId>{h.fig.a, h.fig.b, h.fig.e, h.fig.f}));
}

TEST(SessionBgp, PartitionLeavesNoGhostRoutes) {
  // Cut F off entirely: everyone must end up with no route.
  SessionHarness h;
  h.network.start();
  h.run();
  h.network.fail_link(h.fig.e, h.fig.f);
  h.network.fail_link(h.fig.c, h.fig.f);
  h.run();
  for (topo::NodeId node : {h.fig.a, h.fig.b, h.fig.c, h.fig.d, h.fig.e})
    EXPECT_FALSE(h.network.has_route(node)) << "node " << node;
}

TEST(SessionBgp, ObserverSeesRouteChanges) {
  SessionHarness h;
  std::size_t changes_at_b = 0;
  h.network.set_observer([&](topo::NodeId node, PathId) {
    if (node == h.fig.b) ++changes_at_b;
  });
  h.network.start();
  h.run();
  const std::size_t after_convergence = changes_at_b;
  EXPECT_GT(after_convergence, 0u);
  h.network.fail_link(h.fig.e, h.fig.f);
  h.run();
  EXPECT_GT(changes_at_b, after_convergence);
}

TEST(SessionBgp, FailUnknownLinkThrows) {
  SessionHarness h;
  EXPECT_THROW(h.network.fail_link(h.fig.a, h.fig.f), Error);
}

TEST(SessionBgp, InspectorsRejectOutOfRangeNodes) {
  SessionHarness h;
  h.network.start();
  h.run();
  const topo::NodeId bad =
      static_cast<topo::NodeId>(h.fig.graph.node_count() + 3);
  const topo::NodeId a = h.fig.a;
  EXPECT_THROW(h.network.has_route(bad), Error);
  EXPECT_THROW(h.network.best(bad), Error);
  EXPECT_THROW(h.network.best_path(bad), Error);
  EXPECT_THROW(h.network.best_class(bad), Error);
  EXPECT_THROW(h.network.path_of(bad), Error);
  EXPECT_THROW(h.network.adj_in_path(bad, a), Error);
  EXPECT_THROW(h.network.adj_in_path(a, bad), Error);
  EXPECT_THROW(h.network.is_suppressed(bad, a), Error);
  EXPECT_THROW(h.network.damping_penalty_of(a, bad), Error);
  const auto past_end =
      static_cast<SessionedBgpNetwork::HalfEdge>(h.fig.graph.half_edge_count());
  EXPECT_THROW(h.network.adj_in(past_end), Error);
  EXPECT_THROW(h.network.advertised(past_end), Error);
  EXPECT_THROW(h.network.session_up(past_end), Error);
  // In range but not neighbors: nothing held, nothing damped.
  EXPECT_TRUE(h.network.adj_in_path(a, h.fig.f).empty());
  EXPECT_FALSE(h.network.is_suppressed(a, h.fig.f));
  EXPECT_EQ(h.network.damping_penalty_of(a, h.fig.f), 0.0);
}

// reverse(h) names the peer's half-edge: for n->m, the m->n where m keeps
// what n advertised to it.
TEST(SessionBgp, ReverseIsThePeersHalfEdge) {
  const topo::AsGraph graph = topo::generate(topo::profile("gao2005", 0.15));
  sim::Scheduler scheduler;
  const SessionedBgpNetwork network(graph, 0, scheduler);
  for (topo::NodeId n = 0; n < graph.node_count(); ++n) {
    for (const topo::Neighbor& m : graph.neighbors(n)) {
      ASSERT_EQ(network.reverse(graph.half_edge(n, m.node)),
                graph.half_edge(m.node, n))
          << n << "->" << m.node;
    }
  }
  EXPECT_THROW(network.reverse(static_cast<SessionedBgpNetwork::HalfEdge>(
                   graph.half_edge_count())),
               Error);
}

// Asserts the network's converged state agrees with the stable solver on the
// given graph and that the transient accounting has fully drained.
void expect_converged_and_clean(const SessionedBgpNetwork& network,
                                const topo::AsGraph& graph,
                                topo::NodeId destination) {
  EXPECT_EQ(network.messages_in_flight(), 0u);
  EXPECT_EQ(network.mrai_parked(), 0u);
  EXPECT_TRUE(network.transit_quiet());
  const RoutingTree tree = StableRouteSolver(graph).solve(destination);
  for (topo::NodeId node = 0; node < graph.node_count(); ++node) {
    ASSERT_EQ(network.has_route(node), tree.reachable(node))
        << "node " << node;
    if (tree.reachable(node)) {
      EXPECT_EQ(network.path_of(node), tree.path_of(node)) << "node " << node;
    }
    // No Adj-RIB-In entry may survive over a failed link, and every entry
    // must name a link of `graph` and hold a path its neighbor sent.
    const topo::AsGraph& wired = network.graph();
    std::uint32_t h = wired.first_half_edge(node);
    for (const topo::Neighbor& from : wired.neighbors(node)) {
      const bool up = network.session_up(h);
      const PathId path_id = network.adj_in(h++);
      if (path_id == kNullPath) continue;
      EXPECT_TRUE(graph.has_edge(node, from.node));
      EXPECT_TRUE(up) << "stale entry " << node << " <- " << from.node;
      EXPECT_EQ(network.adj_in_path(node, from.node),
                network.paths().materialize(path_id));
      EXPECT_EQ(network.paths().head(path_id), from.node);
    }
  }
}

TEST(SessionBgp, RapidFlapWithUpdatesInFlightLeavesNoStaleState) {
  // Flap E-F several times *without* letting the network quiesce in
  // between: corrective updates are still in flight when the link state
  // changes again. Afterwards no stale Adj-RIB-In entry may survive and the
  // converged state must match the solver exactly.
  SessionHarness h;
  h.network.start();
  h.run();
  for (int round = 0; round < 4; ++round) {
    h.network.fail_link(h.fig.e, h.fig.f);
    // A handful of events only — withdrawals are still propagating.
    for (int i = 0; i < 3; ++i) h.scheduler.run_one();
    h.network.restore_link(h.fig.e, h.fig.f);
    for (int i = 0; i < 2; ++i) h.scheduler.run_one();
  }
  h.run();
  expect_converged_and_clean(h.network, h.fig.graph, h.fig.f);
  EXPECT_EQ(h.network.failed_links().size(), 0u);
}

TEST(SessionBgp, RapidFlapEndingDownDrainsTheFlappedSessions) {
  SessionHarness h;
  h.network.start();
  h.run();
  for (int round = 0; round < 3; ++round) {
    h.network.fail_link(h.fig.e, h.fig.f);
    for (int i = 0; i < 2; ++i) h.scheduler.run_one();
    h.network.restore_link(h.fig.e, h.fig.f);
    h.scheduler.run_one();
  }
  h.network.fail_link(h.fig.e, h.fig.f);  // leave it down
  h.run();
  EXPECT_TRUE(h.network.adj_in_path(h.fig.e, h.fig.f).empty());
  EXPECT_TRUE(h.network.adj_in_path(h.fig.f, h.fig.e).empty());
  EXPECT_FALSE(h.network.advertised(h.fig.graph.half_edge(h.fig.e, h.fig.f)));
  EXPECT_FALSE(h.network.advertised(h.fig.graph.half_edge(h.fig.f, h.fig.e)));
  // Converged state must match the solver on the surviving topology.
  topo::GraphBuilder builder;
  topo::NodeId a = builder.add_as(1), b = builder.add_as(2),
               c = builder.add_as(3), d = builder.add_as(4),
               e = builder.add_as(5), f = builder.add_as(6);
  builder.add_customer_provider(b, a);
  builder.add_customer_provider(d, a);
  builder.add_customer_provider(b, e);
  builder.add_customer_provider(d, e);
  builder.add_customer_provider(c, f);  // e-f missing: it stayed down
  builder.add_peer(b, c);
  builder.add_peer(c, e);
  const topo::AsGraph survived = std::move(builder).build();
  expect_converged_and_clean(h.network, survived, f);
}

TEST(SessionBgp, DefenseConfigOffByDefaultAndValidated) {
  SessionHarness h;
  EXPECT_EQ(h.network.defense().mrai, 0u);
  EXPECT_FALSE(h.network.defense().damping_enabled);
  h.network.start();
  h.run();
  EXPECT_EQ(h.network.stats().coalesced, 0u);
  EXPECT_EQ(h.network.stats().updates_suppressed, 0u);
  EXPECT_EQ(h.network.stats().routes_damped, 0u);

  Figure31Topology fig;
  sim::Scheduler scheduler;
  ChurnDefenseConfig bad;
  bad.damping_enabled = true;
  bad.damping_suppress = 100.0;  // suppress below reuse: nonsense
  bad.damping_reuse = 500.0;
  EXPECT_THROW(
      SessionedBgpNetwork(fig.graph, fig.f, scheduler, bad), Error);
  bad = ChurnDefenseConfig{};
  bad.damping_enabled = true;
  bad.damping_half_life = 0;
  EXPECT_THROW(
      SessionedBgpNetwork(fig.graph, fig.f, scheduler, bad), Error);
}

TEST(SessionBgp, MraiCoalescesRapidChanges) {
  // Same rapid-flap schedule with and without MRAI: the paced run must
  // coalesce superseded updates and put fewer messages on the wire, while
  // converging to the same answer.
  const auto run_flaps = [](ChurnDefenseConfig defense) {
    Figure31Topology fig;
    sim::Scheduler scheduler;
    SessionedBgpNetwork network(fig.graph, fig.f, scheduler, defense);
    network.start();
    scheduler.run_all();
    for (int round = 0; round < 5; ++round) {
      network.fail_link(fig.e, fig.f);
      scheduler.run_until(scheduler.now() + 15);
      network.restore_link(fig.e, fig.f);
      scheduler.run_until(scheduler.now() + 15);
    }
    scheduler.run_all();
    expect_converged_and_clean(network, fig.graph, fig.f);
    return network.stats();
  };
  const SessionedBgpNetwork::Stats eager = run_flaps({});
  ChurnDefenseConfig paced;
  paced.mrai = 100;
  const SessionedBgpNetwork::Stats coalesced = run_flaps(paced);
  EXPECT_GT(coalesced.coalesced, 0u);
  EXPECT_LT(coalesced.updates_sent + coalesced.withdrawals_sent,
            eager.updates_sent + eager.withdrawals_sent);
}

/// Damping tuned so that three fast E-F flaps quarantine E's direct route.
ChurnDefenseConfig fast_damping() {
  ChurnDefenseConfig defense;
  defense.damping_enabled = true;
  defense.damping_penalty = 1000.0;
  defense.damping_suppress = 2500.0;
  defense.damping_reuse = 1200.0;
  defense.damping_ceiling = 6000.0;
  defense.damping_half_life = 200;
  return defense;
}

/// Three fast flaps of E-F: E books a penalty per implicit withdrawal and
/// per re-announcement, crossing the suppress threshold.
void flap_e_f_three_times(SessionedBgpNetwork& network,
                          sim::Scheduler& scheduler,
                          const Figure31Topology& fig) {
  for (int round = 0; round < 3; ++round) {
    network.fail_link(fig.e, fig.f);
    scheduler.run_until(scheduler.now() + 25);
    network.restore_link(fig.e, fig.f);
    scheduler.run_until(scheduler.now() + 25);
  }
}

TEST(SessionBgp, DampingSuppressesFlappingRouteAndReusesAfterDecay) {
  Figure31Topology fig;
  sim::Scheduler scheduler;
  const ChurnDefenseConfig defense = fast_damping();
  SessionedBgpNetwork network(fig.graph, fig.f, scheduler, defense);
  network.start();
  scheduler.run_all();
  EXPECT_EQ(network.path_of(fig.e),
            (std::vector<topo::NodeId>{fig.e, fig.f}));

  flap_e_f_three_times(network, scheduler, fig);
  EXPECT_TRUE(network.is_suppressed(fig.e, fig.f));
  EXPECT_GT(network.damping_penalty_of(fig.e, fig.f),
            defense.damping_suppress - defense.damping_penalty);
  EXPECT_GT(network.stats().routes_damped, 0u);
  EXPECT_GT(network.active_suppressions(), 0u);
  // While quarantined, E routes around the perfectly healthy direct link.
  scheduler.run_until(scheduler.now() + 50);
  EXPECT_EQ(network.path_of(fig.e),
            (std::vector<topo::NodeId>{fig.e, fig.c, fig.f}));

  // Draining the reuse timers releases the suppression and the network
  // returns to the stable solution.
  scheduler.run_all();
  EXPECT_FALSE(network.is_suppressed(fig.e, fig.f));
  EXPECT_EQ(network.active_suppressions(), 0u);
  expect_converged_and_clean(network, fig.graph, fig.f);
}

// A quarantined entry stays out of every selection, not just the one on
// the suppression edge. The flaps also churn what B advertises to E, so
// both E's direct route and its provider route over B end up damped: once
// E loses its peer route to C it must hold no route at all.
TEST(SessionBgp, SuppressedRouteStaysOutOfLaterReselects) {
  Figure31Topology fig;
  sim::Scheduler scheduler;
  SessionedBgpNetwork network(fig.graph, fig.f, scheduler, fast_damping());
  network.start();
  scheduler.run_all();
  flap_e_f_three_times(network, scheduler, fig);
  ASSERT_TRUE(network.is_suppressed(fig.e, fig.f));
  ASSERT_EQ(network.adj_in_path(fig.e, fig.f),
            (std::vector<topo::NodeId>{fig.f}));
  ASSERT_TRUE(network.is_suppressed(fig.e, fig.b));
  ASSERT_FALSE(network.adj_in_path(fig.e, fig.b).empty());
  EXPECT_EQ(network.path_of(fig.e),
            (std::vector<topo::NodeId>{fig.e, fig.c, fig.f}));
  network.fail_link(fig.c, fig.e);
  scheduler.run_until(scheduler.now() + 50);
  ASSERT_TRUE(network.is_suppressed(fig.e, fig.f));
  ASSERT_TRUE(network.is_suppressed(fig.e, fig.b));
  EXPECT_FALSE(network.has_route(fig.e));
}

TEST(SessionBgp, PrefixWithdrawDrainsAndReannounceRestores) {
  SessionHarness h;
  h.network.start();
  h.run();
  h.network.withdraw_prefix();
  h.run();
  EXPECT_FALSE(h.network.prefix_announced());
  for (topo::NodeId node = 0; node < h.fig.graph.node_count(); ++node)
    EXPECT_FALSE(h.network.has_route(node)) << "node " << node;
  h.network.announce_prefix();
  h.run();
  expect_converged_and_clean(h.network, h.fig.graph, h.fig.f);
}

TEST(SessionBgp, HijackDivertsAndRecoveryReconverges) {
  SessionHarness h;
  h.network.start();
  h.run();
  h.network.start_hijack(h.fig.a);
  h.run();
  EXPECT_TRUE(h.network.hijack_active());
  // A originates the prefix itself now; its neighbors are captured.
  EXPECT_EQ(h.network.path_of(h.fig.a), (std::vector<topo::NodeId>{h.fig.a}));
  EXPECT_EQ(h.network.path_of(h.fig.b),
            (std::vector<topo::NodeId>{h.fig.b, h.fig.a}));
  h.network.end_hijack(h.fig.a);
  h.run();
  EXPECT_FALSE(h.network.hijack_active());
  expect_converged_and_clean(h.network, h.fig.graph, h.fig.f);
}

}  // namespace
}  // namespace miro::bgp

namespace miro::core {
namespace {

using bgp::SessionedBgpNetwork;
using test::Figure31Topology;

TEST(TunnelMonitor, DownstreamFailureTearsTunnelDown) {
  // The Figure 3.1 tunnel (A via B over BCF, negotiated to avoid E) must be
  // destroyed when the link C-F fails and C's route to F swings through E.
  Figure31Topology fig;
  sim::Scheduler scheduler;
  SessionedBgpNetwork network(fig.graph, fig.f, scheduler);

  TunnelMonitor monitor;
  monitor.watch({/*id=*/7, /*upstream=*/fig.a, /*responder=*/fig.b,
                 /*destination=*/fig.f,
                 /*bound_path=*/{fig.b, fig.c, fig.f},
                 /*must_avoid=*/fig.e, /*strict_binding=*/false});

  std::vector<net::TunnelId> torn;
  network.set_observer([&](topo::NodeId node, bgp::PathId best) {
    std::optional<std::vector<topo::NodeId>> path;
    if (best != bgp::kNullPath) path = network.paths().materialize(best);
    for (const auto& tunnel :
         monitor.on_downstream_change(node, fig.f, path))
      torn.push_back(tunnel.id);
  });

  network.start();
  scheduler.run_all();
  EXPECT_TRUE(torn.empty()) << "tunnel must survive initial convergence";
  ASSERT_EQ(monitor.watched_count(), 1u);

  network.fail_link(fig.c, fig.f);
  scheduler.run_all();
  // C's best toward F is now C-E-F, which traverses E: teardown.
  ASSERT_EQ(torn.size(), 1u);
  EXPECT_EQ(torn[0], 7u);
  EXPECT_EQ(monitor.watched_count(), 0u);
}

TEST(TunnelMonitor, CarrierFailureTearsTunnelDown) {
  // "AS A will tear down the tunnel if the path AB ... fails."
  Figure31Topology fig;
  sim::Scheduler scheduler;
  // Routes toward B are the tunnel carrier.
  SessionedBgpNetwork carrier_network(fig.graph, fig.b, scheduler);

  TunnelMonitor monitor;
  monitor.watch({/*id=*/7, fig.a, fig.b, fig.f,
                 {fig.b, fig.c, fig.f}, fig.e, false});

  std::vector<net::TunnelId> torn;
  carrier_network.set_observer(
      [&](topo::NodeId node, bgp::PathId best) {
        if (node != fig.a) return;
        std::optional<std::vector<topo::NodeId>> path;
        if (best != bgp::kNullPath)
          path = carrier_network.paths().materialize(best);
        for (const auto& tunnel :
             monitor.on_carrier_change(fig.a, fig.b, path))
          torn.push_back(tunnel.id);
      });
  carrier_network.start();
  scheduler.run_all();
  EXPECT_TRUE(torn.empty());

  carrier_network.fail_link(fig.a, fig.b);
  scheduler.run_all();
  // A has no other valley-free route to B: the carrier failed.
  EXPECT_FALSE(carrier_network.has_route(fig.a));
  ASSERT_EQ(torn.size(), 1u);
  EXPECT_EQ(torn[0], 7u);
}

TEST(TunnelMonitor, CarrierDetourThroughAvoidedAsTearsDown) {
  TunnelMonitor monitor;
  monitor.watch({3, /*upstream=*/10, /*responder=*/20, /*destination=*/30,
                 {20, 25, 30}, /*must_avoid=*/topo::NodeId{99}, false});
  // A carrier change that stays clean keeps the tunnel.
  EXPECT_TRUE(monitor
                  .on_carrier_change(10, 20,
                                     std::vector<topo::NodeId>{10, 11, 20})
                  .empty());
  // One that now traverses the avoided AS kills it.
  const auto torn = monitor.on_carrier_change(
      10, 20, std::vector<topo::NodeId>{10, 99, 20});
  ASSERT_EQ(torn.size(), 1u);
  EXPECT_EQ(torn[0].id, 3u);
}

TEST(TunnelMonitor, StrictBindingTearsDownOnAnyDeviation) {
  TunnelMonitor monitor;
  monitor.watch({4, 10, 20, 30, {20, 25, 30}, std::nullopt,
                 /*strict_binding=*/true});
  // Same suffix: survives.
  EXPECT_TRUE(monitor
                  .on_downstream_change(25, 30,
                                        std::vector<topo::NodeId>{25, 30})
                  .empty());
  // Different suffix: torn down even though nothing "failed".
  const auto torn = monitor.on_downstream_change(
      25, 30, std::vector<topo::NodeId>{25, 26, 30});
  ASSERT_EQ(torn.size(), 1u);
}

TEST(TunnelMonitor, UnwatchStopsTracking) {
  TunnelMonitor monitor;
  monitor.watch({5, 10, 20, 30, {20, 25, 30}, std::nullopt, false});
  EXPECT_TRUE(monitor.unwatch(20, 5));
  EXPECT_FALSE(monitor.unwatch(20, 5));
  EXPECT_TRUE(monitor.on_downstream_change(25, 30, std::nullopt).empty());
}

TEST(TunnelMonitor, UnrelatedChangesAreIgnored) {
  TunnelMonitor monitor;
  monitor.watch({6, 10, 20, 30, {20, 25, 30}, std::nullopt, false});
  EXPECT_TRUE(monitor.on_carrier_change(11, 20, std::nullopt).empty());
  EXPECT_TRUE(monitor.on_carrier_change(10, 21, std::nullopt).empty());
  EXPECT_TRUE(monitor.on_downstream_change(26, 30, std::nullopt).empty());
  EXPECT_TRUE(monitor.on_downstream_change(25, 31, std::nullopt).empty());
  EXPECT_EQ(monitor.watched_count(), 1u);
}

}  // namespace
}  // namespace miro::core
