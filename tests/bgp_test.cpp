#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "bgp/path_table.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "bgp/route.hpp"
#include "bgp/route_solver.hpp"
#include "scenarios.hpp"
#include "topology/generator.hpp"

namespace miro::bgp {

// Corrupts a solved tree's next-hop entries to exercise the bounded-walk
// guards — states no correct solver run can produce.
struct RoutingTreeTestAccess {
  static void set_next_hop(RoutingTree& tree, topo::NodeId node,
                           topo::NodeId next_hop) {
    tree.entries_[node].reachable = true;
    tree.entries_[node].next_hop = next_hop;
  }
};

namespace {

using test::Figure31Topology;
using topo::Relationship;

TEST(RouteClass, ClassifyByFirstLink) {
  EXPECT_EQ(classify(Relationship::Customer, RouteClass::Provider),
            RouteClass::Customer);
  EXPECT_EQ(classify(Relationship::Peer, RouteClass::Customer),
            RouteClass::Peer);
  EXPECT_EQ(classify(Relationship::Provider, RouteClass::Self),
            RouteClass::Provider);
}

TEST(RouteClass, SiblingInheritsNeighborClass) {
  EXPECT_EQ(classify(Relationship::Sibling, RouteClass::Peer),
            RouteClass::Peer);
  EXPECT_EQ(classify(Relationship::Sibling, RouteClass::Provider),
            RouteClass::Provider);
  // All-sibling chain back to the origin counts as a customer route.
  EXPECT_EQ(classify(Relationship::Sibling, RouteClass::Self),
            RouteClass::Customer);
}

TEST(RouteClass, ConventionalExportRules) {
  // Customer routes go everywhere.
  for (auto rel : {Relationship::Customer, Relationship::Peer,
                   Relationship::Provider, Relationship::Sibling}) {
    EXPECT_TRUE(conventional_export_allows(RouteClass::Customer, rel));
    EXPECT_TRUE(conventional_export_allows(RouteClass::Self, rel));
  }
  // Peer/provider routes only to customers and siblings.
  for (auto cls : {RouteClass::Peer, RouteClass::Provider}) {
    EXPECT_TRUE(conventional_export_allows(cls, Relationship::Customer));
    EXPECT_TRUE(conventional_export_allows(cls, Relationship::Sibling));
    EXPECT_FALSE(conventional_export_allows(cls, Relationship::Peer));
    EXPECT_FALSE(conventional_export_allows(cls, Relationship::Provider));
  }
}

TEST(RouteClass, LocalPrefBandsAreOrdered) {
  EXPECT_GT(conventional_local_pref(RouteClass::Customer),
            conventional_local_pref(RouteClass::Peer));
  EXPECT_GT(conventional_local_pref(RouteClass::Peer),
            conventional_local_pref(RouteClass::Provider));
}

TEST(Route, TraversesAndAccessors) {
  Route route{{0, 1, 2}, RouteClass::Customer};
  EXPECT_EQ(route.owner(), 0u);
  EXPECT_EQ(route.destination(), 2u);
  EXPECT_EQ(route.next_hop(), 1u);
  EXPECT_EQ(route.length(), 2u);
  EXPECT_TRUE(route.traverses(1));
  EXPECT_FALSE(route.traverses(3));
}

TEST(Route, PreferOrdersByClassLengthNextHop) {
  Figure31Topology fig;
  Route customer{{fig.b, fig.e, fig.f}, RouteClass::Customer};
  Route peer{{fig.b, fig.c, fig.f}, RouteClass::Peer};
  EXPECT_TRUE(prefer(customer, peer, fig.graph));
  EXPECT_FALSE(prefer(peer, customer, fig.graph));

  Route shorter{{fig.a, fig.b, fig.f}, RouteClass::Provider};
  Route longer{{fig.a, fig.b, fig.e, fig.f}, RouteClass::Provider};
  EXPECT_TRUE(prefer(shorter, longer, fig.graph));

  Route via_b{{fig.a, fig.b, fig.e, fig.f}, RouteClass::Provider};
  Route via_d{{fig.a, fig.d, fig.e, fig.f}, RouteClass::Provider};
  EXPECT_TRUE(prefer(via_b, via_d, fig.graph));  // AS 2 < AS 4
}

// ---------------------------------------------------------------- solver

TEST(StableRouteSolver, Figure31DefaultRoutes) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);

  EXPECT_EQ(tree.reachable_count(), 6u);
  // The figure's stable routes: C->CF, E->EF, B->BEF, D->DEF, A->ABEF.
  EXPECT_EQ(tree.path_of(fig.c), (std::vector<topo::NodeId>{fig.c, fig.f}));
  EXPECT_EQ(tree.path_of(fig.e), (std::vector<topo::NodeId>{fig.e, fig.f}));
  EXPECT_EQ(tree.path_of(fig.b),
            (std::vector<topo::NodeId>{fig.b, fig.e, fig.f}));
  EXPECT_EQ(tree.path_of(fig.d),
            (std::vector<topo::NodeId>{fig.d, fig.e, fig.f}));
  EXPECT_EQ(tree.path_of(fig.a),
            (std::vector<topo::NodeId>{fig.a, fig.b, fig.e, fig.f}));
  EXPECT_EQ(tree.route_class(fig.b), RouteClass::Customer);
  EXPECT_EQ(tree.route_class(fig.a), RouteClass::Provider);
}

TEST(StableRouteSolver, IngressNeighbor) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  EXPECT_EQ(tree.ingress_neighbor(fig.a), fig.e);
  EXPECT_EQ(tree.ingress_neighbor(fig.c), fig.c);
  EXPECT_EQ(tree.ingress_neighbor(fig.f), topo::kInvalidNode);
}

// Regression: ingress_neighbor walked next_hop chains with no loop guard;
// a corrupted (or buggy) tree with a next-hop cycle spun forever. The walk
// is now bounded by the node count and throws instead.
TEST(StableRouteSolver, IngressNeighborGuardsAgainstNextHopLoops) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  RoutingTree tree = solver.solve(fig.f);
  // Force a two-node cycle b -> e -> b that never reaches the destination.
  RoutingTreeTestAccess::set_next_hop(tree, fig.b, fig.e);
  RoutingTreeTestAccess::set_next_hop(tree, fig.e, fig.b);
  EXPECT_THROW(tree.ingress_neighbor(fig.b), Error);
  // Nodes outside the cycle still resolve.
  EXPECT_EQ(tree.ingress_neighbor(fig.c), fig.c);
}

TEST(StableRouteSolver, CandidatesAtBIncludePeerRoute) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  const auto candidates = solver.candidates_at(tree, fig.b);
  // B learns BEF from its customer E and BCF from its peer C; A's route
  // would loop through B and is rejected.
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].path,
            (std::vector<topo::NodeId>{fig.b, fig.e, fig.f}));
  EXPECT_EQ(candidates[0].route_class, RouteClass::Customer);
  EXPECT_EQ(candidates[1].path,
            (std::vector<topo::NodeId>{fig.b, fig.c, fig.f}));
  EXPECT_EQ(candidates[1].route_class, RouteClass::Peer);
}

TEST(StableRouteSolver, CandidatesAtARespectExportRules) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  const auto candidates = solver.candidates_at(tree, fig.a);
  // A hears from its providers B and D (both announce customer routes).
  ASSERT_EQ(candidates.size(), 2u);
  for (const Route& route : candidates)
    EXPECT_EQ(route.route_class, RouteClass::Provider);
}

TEST(StableRouteSolver, ValleyFreePaths) {
  // Property: on a generated topology every stable path is valley-free —
  // once the path goes down (provider->customer) or across a peer link, it
  // never goes up or crosses another peer link again.
  const topo::AsGraph graph = topo::generate(topo::profile("tiny"));
  StableRouteSolver solver(graph);
  for (topo::NodeId dest : {topo::NodeId{3}, topo::NodeId{40},
                            static_cast<topo::NodeId>(graph.node_count() - 1)}) {
    const RoutingTree tree = solver.solve(dest);
    for (topo::NodeId source = 0; source < graph.node_count(); ++source) {
      if (!tree.reachable(source)) continue;
      const auto path = tree.path_of(source);
      bool descending = false;
      int peer_links = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const Relationship rel = graph.relationship(path[i], path[i + 1]);
        if (rel == Relationship::Sibling) continue;
        if (rel == Relationship::Provider) {
          // going up (next hop is my provider): must not already descend
          EXPECT_FALSE(descending) << "valley in path";
          EXPECT_EQ(peer_links, 0) << "up after peer link";
        } else if (rel == Relationship::Peer) {
          ++peer_links;
          EXPECT_LE(peer_links, 1) << "two peer links on a path";
          EXPECT_FALSE(descending) << "peer link after descending";
        } else {
          descending = true;
        }
      }
    }
  }
}

TEST(StableRouteSolver, SiblingLinksAreTransparent) {
  // s1 - s2 are siblings; dest hangs off s2 as a customer; x is a peer of
  // s1. The route x-s1-s2-dest must classify as a peer route at x and be
  // available (s1 exports the sibling-learned customer route to its peer).
  topo::GraphBuilder builder;
  const auto s1 = builder.add_as(10);
  const auto s2 = builder.add_as(20);
  const auto dest = builder.add_as(30);
  const auto x = builder.add_as(40);
  builder.add_sibling(s1, s2);
  builder.add_customer_provider(/*provider=*/s2, /*customer=*/dest);
  builder.add_peer(x, s1);
  const topo::AsGraph graph = std::move(builder).build();
  StableRouteSolver solver(graph);
  const RoutingTree tree = solver.solve(dest);
  ASSERT_TRUE(tree.reachable(s1));
  EXPECT_EQ(tree.route_class(s1), RouteClass::Customer);  // via sibling
  ASSERT_TRUE(tree.reachable(x));
  EXPECT_EQ(tree.route_class(x), RouteClass::Peer);
  EXPECT_EQ(tree.path_of(x), (std::vector<topo::NodeId>{x, s1, s2, dest}));
}

TEST(StableRouteSolver, PeerRouteNotExportedToPeer) {
  // x - y peers, y - z peers, z originates. x must NOT reach z through y.
  topo::GraphBuilder builder;
  const auto x = builder.add_as(1);
  const auto y = builder.add_as(2);
  const auto z = builder.add_as(3);
  builder.add_peer(x, y);
  builder.add_peer(y, z);
  const topo::AsGraph graph = std::move(builder).build();
  StableRouteSolver solver(graph);
  const RoutingTree tree = solver.solve(z);
  EXPECT_TRUE(tree.reachable(y));
  EXPECT_FALSE(tree.reachable(x));
}

TEST(StableRouteSolver, PinnedRouteForcesAlternate) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  // Pin B to its peer route via C; everyone re-selects.
  const RoutingTree pinned =
      solver.solve_pinned(fig.f, PinnedRoute{fig.b, fig.c});
  EXPECT_EQ(pinned.path_of(fig.b),
            (std::vector<topo::NodeId>{fig.b, fig.c, fig.f}));
  EXPECT_EQ(pinned.route_class(fig.b), RouteClass::Peer);
  // A still reaches F; its route now follows B's new path or goes via D.
  ASSERT_TRUE(pinned.reachable(fig.a));
  const auto a_path = pinned.path_of(fig.a);
  EXPECT_EQ(a_path.back(), fig.f);
}

TEST(StableRouteSolver, PinnedRouteRequiresAdjacency) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  EXPECT_THROW(solver.solve_pinned(fig.f, PinnedRoute{fig.a, fig.f}), Error);
}

using LinkList = std::vector<std::pair<topo::NodeId, topo::NodeId>>;

// The oracle for solve_without_links: the graph rebuilt without the failed
// links, with identical dense node ids (same add_as order) so trees compare
// node by node.
topo::AsGraph rebuilt_without_links(const topo::AsGraph& graph,
                                    const LinkList& failed) {
  topo::GraphBuilder builder;
  for (topo::NodeId n = 0; n < graph.node_count(); ++n)
    builder.add_as(graph.as_number(n));
  std::set<std::pair<topo::NodeId, topo::NodeId>> dead;
  for (const auto& [a, b] : failed)
    dead.insert({std::min(a, b), std::max(a, b)});
  for (topo::NodeId n = 0; n < graph.node_count(); ++n) {
    for (const topo::Neighbor& nb : graph.neighbors(n)) {
      if (nb.node < n) continue;  // each undirected link once
      if (dead.count({n, nb.node}) != 0) continue;
      switch (nb.rel) {  // nb.rel = what nb is *to n*
        case Relationship::Customer:
          builder.add_customer_provider(/*provider=*/n, /*customer=*/nb.node);
          break;
        case Relationship::Provider:
          builder.add_customer_provider(/*provider=*/nb.node, /*customer=*/n);
          break;
        case Relationship::Peer:
          builder.add_peer(n, nb.node);
          break;
        case Relationship::Sibling:
          builder.add_sibling(n, nb.node);
          break;
      }
    }
  }
  return std::move(builder).build();
}

void expect_same_tree(const RoutingTree& actual, const RoutingTree& expected,
                      std::size_t node_count) {
  for (topo::NodeId n = 0; n < node_count; ++n) {
    ASSERT_EQ(actual.reachable(n), expected.reachable(n)) << "node " << n;
    if (!actual.reachable(n)) continue;
    EXPECT_EQ(actual.next_hop(n), expected.next_hop(n)) << "node " << n;
    EXPECT_EQ(actual.path_length(n), expected.path_length(n)) << "node " << n;
    EXPECT_EQ(actual.route_class(n), expected.route_class(n)) << "node " << n;
  }
}

// Random sets of 1-5 failed links, each pair given in a random order, on the
// tiny profile and three gao2005 seeds: skipping the links in the kernel
// must equal a cold solve on the rebuilt surviving graph.
TEST(StableRouteSolver, SolveWithoutLinksMatchesRebuiltGraph) {
  std::vector<topo::AsGraph> graphs;
  graphs.push_back(topo::generate(topo::profile("tiny")));
  for (std::uint64_t seed : {1, 2, 3}) {
    topo::GeneratorParams params = topo::profile("gao2005", 0.1);
    params.seed = seed;
    graphs.push_back(topo::generate(params));
  }
  Rng rng(17);
  for (const topo::AsGraph& graph : graphs) {
    const StableRouteSolver solver(graph);
    const std::size_t n = graph.node_count();
    for (int trial = 0; trial < 8; ++trial) {
      LinkList down;
      const std::size_t links = 1 + rng.next_below(5);
      while (down.size() < links) {
        const auto a = static_cast<topo::NodeId>(rng.next_below(n));
        if (graph.degree(a) == 0) continue;
        const topo::NodeId b =
            graph.neighbors(a)[rng.next_below(graph.degree(a))].node;
        down.push_back(rng.next_below(2) == 0 ? std::pair{a, b}
                                              : std::pair{b, a});
      }
      const topo::AsGraph rebuilt = rebuilt_without_links(graph, down);
      const StableRouteSolver oracle(rebuilt);
      for (int d = 0; d < 3; ++d) {
        const auto destination = static_cast<topo::NodeId>(rng.next_below(n));
        expect_same_tree(solver.solve_without_links(destination, down),
                         oracle.solve(destination), n);
      }
    }
  }
}

TEST(StableRouteSolver, SolveWithoutLinksRejectsNonLinks) {
  Figure31Topology fig;
  const StableRouteSolver solver(fig.graph);
  // No links down is the plain stable state.
  expect_same_tree(solver.solve_without_links(fig.f, {}), solver.solve(fig.f),
                   fig.graph.node_count());
  ASSERT_FALSE(fig.graph.has_edge(fig.a, fig.f));
  EXPECT_THROW(solver.solve_without_links(fig.f, {{fig.a, fig.f}}), Error);
  EXPECT_THROW(solver.solve_without_links(fig.f, {{fig.c, fig.f},
                                                  {fig.f, fig.a}}),
               Error);
  EXPECT_THROW(solver.solve_without_links(fig.f, {{fig.a, fig.a}}), Error);
  EXPECT_THROW(solver.solve_without_links(
                   fig.f, {{fig.a, topo::NodeId{1000}}}),
               Error);
}

TEST(StableRouteSolver, SolveAvoidingRejectsAnOutOfRangeAs) {
  const topo::AsGraph graph = topo::generate(topo::profile("tiny"));
  const StableRouteSolver solver(graph);
  const auto n = static_cast<NodeId>(graph.node_count());
  EXPECT_THROW(solver.solve_avoiding(0, n), Error);
  EXPECT_THROW(solver.solve_avoiding(0, n + 5), Error);
  EXPECT_THROW(solver.solve_avoiding(0, topo::kInvalidNode), Error);
  EXPECT_THROW(solver.solve_avoiding(0, 0), Error);
  EXPECT_LT(solver.solve_avoiding(0, n - 1).reachable_count(), n);
}

TEST(PathTable, InternDedupsAndSharesSuffixes) {
  PathTable table;
  const std::vector<NodeId> a{4, 2, 1};
  const std::vector<NodeId> b{5, 2, 1};
  const PathId pa = table.intern(a);
  const PathId pb = table.intern(b);
  EXPECT_NE(pa, kNullPath);
  EXPECT_NE(pa, pb);
  // Equal paths intern to the same id — the O(1) equality the RIB relies on.
  EXPECT_EQ(table.intern(a), pa);
  // The {2, 1} tail is stored once and shared.
  EXPECT_EQ(table.suffix(pa), table.suffix(pb));
  // Distinct suffixes: {1}, {2,1}, {4,2,1}, {5,2,1}.
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.materialize(pa), a);
  EXPECT_EQ(table.materialize(pb), b);
  EXPECT_EQ(table.length(pa), 3u);
  EXPECT_EQ(table.head(pa), 4u);
  EXPECT_EQ(table.head(pb), 5u);
}

TEST(PathTable, ContainsWalksTheWholeChain) {
  PathTable table;
  const std::vector<NodeId> path{9, 7, 5, 3};
  const PathId id = table.intern(path);
  for (NodeId node : path) EXPECT_TRUE(table.contains(id, node));
  EXPECT_FALSE(table.contains(id, 4));
  EXPECT_FALSE(table.contains(kNullPath, 9));
}

TEST(PathTable, NullAndInvalidIds) {
  PathTable table;
  EXPECT_EQ(table.intern(std::span<const NodeId>{}), kNullPath);
  EXPECT_EQ(table.length(kNullPath), 0u);
  EXPECT_TRUE(table.materialize(kNullPath).empty());
  EXPECT_THROW(table.head(kNullPath), Error);
  EXPECT_THROW(table.suffix(kNullPath), Error);
  EXPECT_THROW(table.head(99), Error);  // never minted
  EXPECT_THROW(table.extend(topo::kInvalidNode, kNullPath), Error);
}

TEST(PathTable, MaterializeIntoReusesScratch) {
  PathTable table;
  const PathId longer = table.intern(std::vector<NodeId>{8, 6, 4, 2});
  const PathId shorter = table.intern(std::vector<NodeId>{3, 2});
  std::vector<NodeId> scratch;
  table.materialize_into(longer, scratch);
  EXPECT_EQ(scratch, (std::vector<NodeId>{8, 6, 4, 2}));
  table.materialize_into(shorter, scratch);  // must clear the previous path
  EXPECT_EQ(scratch, (std::vector<NodeId>{3, 2}));
  table.materialize_into(kNullPath, scratch);
  EXPECT_TRUE(scratch.empty());
}

}  // namespace
}  // namespace miro::bgp
