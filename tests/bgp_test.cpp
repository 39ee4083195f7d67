#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <set>
#include <span>
#include <string>
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

TEST(StableRouteSolver, PinnedRouteRejectsTheDestination) {
  const topo::AsGraph graph = topo::generate(topo::profile("tiny"));
  const StableRouteSolver solver(graph);
  const NodeId d = 5;
  ASSERT_GT(graph.degree(d), 0u);
  const NodeId n = graph.neighbors(d).front().node;
  EXPECT_THROW(solver.solve_pinned(d, PinnedRoute{d, n}), Error);
  // The neighbor itself may still be pinned back to the destination.
  EXPECT_TRUE(solver.solve_pinned(d, PinnedRoute{n, d}).reachable(n));
}

TEST(StableRouteSolver, PrependRejectsAnOverflowingExtra) {
  const topo::AsGraph graph = topo::generate(topo::profile("tiny"));
  const StableRouteSolver solver(graph);
  const NodeId d = 5;
  const NodeId n = graph.neighbors(d).front().node;
  const auto count = static_cast<std::uint32_t>(graph.node_count());
  ASSERT_GT(count, 255u);
  const RoutingTree padded = solver.solve_prepended(d, OriginPrepend{n, count});
  ASSERT_TRUE(padded.reachable(n));
  EXPECT_LT(padded.path_length(n), std::size_t{2} * count);
  EXPECT_THROW(solver.solve_prepended(d, OriginPrepend{n, count + 1}), Error);
  EXPECT_THROW(solver.solve_prepended(d, OriginPrepend{n, UINT32_MAX}), Error);
  // Below 255 ASes the bound is one full AS_SEQUENCE segment.
  Figure31Topology fig;
  const StableRouteSolver small(fig.graph);
  EXPECT_NO_THROW(small.solve_prepended(fig.f, OriginPrepend{fig.c, 255}));
  EXPECT_THROW(small.solve_prepended(fig.f, OriginPrepend{fig.c, 256}),
               Error);
}

// ------------------------------------------------- differential vs the heap

// The solver's kernel before the bucket frontier, kept as the oracle: a
// Dijkstra pass over a binary heap of (class rank, length, next-hop AS
// number) keys, one push per exportable half-edge.
struct HeapEntry {
  bool reachable = false;
  NodeId next_hop = topo::kInvalidNode;
  std::uint32_t length = 0;
  RouteClass cls = RouteClass::Provider;
};

std::vector<HeapEntry> heap_solve(const topo::AsGraph& graph,
                                  NodeId destination,
                                  const PinnedRoute* pin = nullptr,
                                  const OriginPrepend* prepend = nullptr,
                                  NodeId exclude = topo::kInvalidNode,
                                  const LinkList& down = {}) {
  auto link_key = [](NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  };
  std::vector<std::uint64_t> dead;
  for (const auto& [a, b] : down) dead.push_back(link_key(a, b));
  std::sort(dead.begin(), dead.end());

  struct QueueItem {
    int class_rank;
    std::uint32_t length;
    topo::AsNumber next_hop_asn;
    NodeId node;
    NodeId next_hop;
    RouteClass cls;
    bool operator>(const QueueItem& other) const {
      if (class_rank != other.class_rank) return class_rank > other.class_rank;
      if (length != other.length) return length > other.length;
      if (next_hop_asn != other.next_hop_asn)
        return next_hop_asn > other.next_hop_asn;
      return node > other.node;
    }
  };
  std::vector<HeapEntry> entries(graph.node_count());
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>
      queue;
  queue.push({rank(RouteClass::Self), 0, graph.as_number(destination),
              destination, destination, RouteClass::Self});
  while (!queue.empty()) {
    const QueueItem item = queue.top();
    queue.pop();
    if (entries[item.node].reachable) continue;
    if (pin != nullptr && item.node == pin->node &&
        item.next_hop != pin->forced_next_hop)
      continue;
    entries[item.node] = {true, item.next_hop, item.length, item.cls};
    for (const topo::Neighbor& n : graph.neighbors(item.node)) {
      if (n.node == exclude) continue;
      if (std::binary_search(dead.begin(), dead.end(),
                             link_key(item.node, n.node)))
        continue;
      if (entries[n.node].reachable) continue;
      if (!conventional_export_allows(item.cls, n.rel)) continue;
      const RouteClass cls = classify(topo::reverse(n.rel), item.cls);
      const std::uint32_t padding =
          (prepend != nullptr && item.node == destination &&
           n.node == prepend->neighbor)
              ? prepend->extra
              : 0;
      queue.push({rank(cls), item.length + 1 + padding,
                  graph.as_number(item.node), n.node, item.node, cls});
    }
  }
  return entries;
}

/// Nodes whose reachability, next hop, length or class differ; the first
/// few are reported.
std::size_t mismatches(const RoutingTree& tree,
                       const std::vector<HeapEntry>& expected,
                       const std::string& what) {
  std::size_t count = 0;
  for (NodeId n = 0; n < expected.size(); ++n) {
    const HeapEntry& e = expected[n];
    const bool same =
        tree.reachable(n) == e.reachable &&
        (!e.reachable ||
         (tree.next_hop(n) == e.next_hop && tree.path_length(n) == e.length &&
          tree.route_class(n) == e.cls));
    if (!same && ++count <= 3)
      ADD_FAILURE() << what << ": node " << n << " differs from the heap";
  }
  return count;
}

struct Tally {
  std::size_t trees = 0;       ///< trees compared with the heap
  std::size_t mismatched = 0;  ///< nodes that differ, over all trees
  std::size_t silent_pins = 0;  ///< pins whose forced neighbor never offers
};

/// Every solve variant toward `destination`, each compared with the heap
/// on every node.
void compare_variants(const topo::AsGraph& graph, NodeId destination,
                      NodeId hub, Rng& rng, Tally& tally) {
  const StableRouteSolver solver(graph);
  const auto n = static_cast<NodeId>(graph.node_count());
  const std::string at = "destination " + std::to_string(destination);
  auto check = [&](const RoutingTree& tree,
                   const std::vector<HeapEntry>& expected,
                   const std::string& what) {
    tally.mismatched += mismatches(tree, expected, at + ", " + what);
    ++tally.trees;
  };
  auto random_node = [&] { return static_cast<NodeId>(rng.next_below(n)); };
  auto random_neighbor = [&](NodeId node) {
    return graph.neighbors(node)[rng.next_below(graph.degree(node))].node;
  };

  const RoutingTree plain = solver.solve(destination);
  check(plain, heap_solve(graph, destination), "solve");
  if (graph.degree(destination) == 0) return;
  const NodeId neighbor = random_neighbor(destination);

  for (const NodeId avoid : {neighbor, random_node(), hub}) {
    if (avoid == destination) continue;
    check(solver.solve_avoiding(destination, avoid),
          heap_solve(graph, destination, nullptr, nullptr, avoid),
          "avoiding " + std::to_string(avoid));
  }

  std::vector<PinnedRoute> pins;
  while (pins.size() < 2) {
    const NodeId node = random_node();
    if (node == destination || graph.degree(node) == 0) continue;
    pins.push_back({node, random_neighbor(node)});
  }
  for (const PinnedRoute& pin : pins) {
    check(solver.solve_pinned(destination, pin),
          heap_solve(graph, destination, &pin),
          "pinning " + std::to_string(pin.node));
  }
  // A pin whose forced neighbor never offers a route: the neighbor has
  // none, or the export rule withholds it from the pinned AS and its path
  // does not cross the pinned AS, so pinning leaves it as it is.
  auto never_offers = [&](NodeId node, const topo::Neighbor& forced) {
    if (!plain.reachable(forced.node)) return true;
    if (conventional_export_allows(plain.route_class(forced.node),
                                   topo::reverse(forced.rel)))
      return false;
    const auto path = plain.path_of(forced.node);
    return std::find(path.begin(), path.end(), node) == path.end();
  };
  const NodeId start = random_node();
  std::optional<PinnedRoute> silent;
  for (NodeId i = 0; i < n && !silent; ++i) {
    const NodeId node = (start + i) % n;
    if (node == destination) continue;
    for (const topo::Neighbor& forced : graph.neighbors(node)) {
      if (!never_offers(node, forced)) continue;
      silent = PinnedRoute{node, forced.node};
      break;
    }
  }
  if (silent) {
    const RoutingTree pinned = solver.solve_pinned(destination, *silent);
    check(pinned, heap_solve(graph, destination, &*silent),
          "pinning " + std::to_string(silent->node) + " to a silent neighbor");
    EXPECT_FALSE(pinned.reachable(silent->node)) << at;
    ++tally.silent_pins;
  }

  for (const std::uint32_t extra : {1u, 3u, 10u, static_cast<NodeId>(n)}) {
    const OriginPrepend prepend{neighbor, extra};
    check(solver.solve_prepended(destination, prepend),
          heap_solve(graph, destination, nullptr, &prepend),
          "prepending " + std::to_string(extra));
  }

  LinkList down{{destination, neighbor}};
  while (down.size() < 5) {
    const NodeId a = random_node();
    if (graph.degree(a) == 0) continue;
    const NodeId b = random_neighbor(a);
    down.push_back(rng.next_below(2) == 0 ? std::pair{a, b} : std::pair{b, a});
  }
  check(solver.solve_without_links(destination, down),
        heap_solve(graph, destination, nullptr, nullptr, topo::kInvalidNode,
                   down),
        "without links");
}

NodeId highest_degree(const topo::AsGraph& graph) {
  NodeId hub = 0;
  for (NodeId n = 1; n < graph.node_count(); ++n)
    if (graph.degree(n) > graph.degree(hub)) hub = n;
  return hub;
}

/// Compares every variant on each of `destinations` and expects no node to
/// differ; most destinations must also have yielded all twelve trees.
void expect_heap_agreement(const topo::AsGraph& graph,
                           const std::vector<NodeId>& destinations,
                           std::uint64_t seed) {
  const NodeId hub = highest_degree(graph);
  Rng rng(seed);
  Tally tally;
  for (const NodeId d : destinations)
    compare_variants(graph, d, hub, rng, tally);
  EXPECT_EQ(tally.mismatched, 0u);
  EXPECT_GE(tally.trees, 11 * destinations.size());
  EXPECT_GE(tally.silent_pins, destinations.size() / 2);
}

std::vector<NodeId> every_node(const topo::AsGraph& graph) {
  std::vector<NodeId> nodes(graph.node_count());
  for (NodeId n = 0; n < nodes.size(); ++n) nodes[n] = n;
  return nodes;
}

TEST(StableRouteSolver, MatchesTheHeapOnEveryTinyDestination) {
  const topo::AsGraph graph = topo::generate(topo::profile("tiny"));
  expect_heap_agreement(graph, every_node(graph), 24);
}

class HeapOracleOnGao2005 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HeapOracleOnGao2005, MatchesOnEveryDestination) {
  topo::GeneratorParams params = topo::profile("gao2005", 0.1);
  params.seed = GetParam();
  const topo::AsGraph graph = topo::generate(params);
  expect_heap_agreement(graph, every_node(graph), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeapOracleOnGao2005,
                         ::testing::Values(1, 2, 3));

// Twenty sampled internet2006 destinations, in four blocks of five so that
// the heap's ~0.5 s per destination spreads over parallel test processes.
class HeapOracleOnInternet2006 : public ::testing::TestWithParam<int> {};

TEST_P(HeapOracleOnInternet2006, MatchesOnSampledDestinations) {
  const topo::AsGraph graph =
      topo::generate(topo::profile("internet2006", 1.0));
  Rng rng(2006);
  const std::vector<std::size_t> sample =
      rng.sample_indices(graph.node_count(), 20);
  std::vector<NodeId> block;
  for (int i = 5 * GetParam(); i < 5 * GetParam() + 5; ++i)
    block.push_back(static_cast<NodeId>(sample[i]));
  expect_heap_agreement(graph, block, 2006 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Blocks, HeapOracleOnInternet2006,
                         ::testing::Range(0, 4));

// Hand-built cases, each checked against the heap on every destination and
// against the routes the policy prescribes.

std::size_t mismatches_on_every_destination(const topo::AsGraph& graph) {
  const StableRouteSolver solver(graph);
  std::size_t count = 0;
  for (NodeId d = 0; d < graph.node_count(); ++d)
    count += mismatches(solver.solve(d), heap_solve(graph, d),
                        "destination " + std::to_string(d));
  return count;
}

TEST(StableRouteSolver, AllSiblingChainFromTheOriginIsCustomer) {
  // dest - s1 - s2 - s3 are siblings; s3 has a peer x and a provider u.
  topo::GraphBuilder builder;
  const auto dest = builder.add_as(10);
  const auto s1 = builder.add_as(20);
  const auto s2 = builder.add_as(30);
  const auto s3 = builder.add_as(40);
  const auto x = builder.add_as(50);
  const auto u = builder.add_as(60);
  builder.add_sibling(dest, s1);
  builder.add_sibling(s1, s2);
  builder.add_sibling(s2, s3);
  builder.add_peer(s3, x);
  builder.add_customer_provider(/*provider=*/u, /*customer=*/s3);
  const topo::AsGraph graph = std::move(builder).build();
  const RoutingTree tree = StableRouteSolver(graph).solve(dest);
  for (const NodeId s : {s1, s2, s3})
    EXPECT_EQ(tree.route_class(s), RouteClass::Customer) << "node " << s;
  EXPECT_EQ(tree.path_length(s3), 3u);
  // A customer route goes to peers and providers too.
  EXPECT_EQ(tree.route_class(x), RouteClass::Peer);
  EXPECT_EQ(tree.route_class(u), RouteClass::Customer);
  EXPECT_EQ(tree.path_of(u),
            (std::vector<NodeId>{u, s3, s2, s1, dest}));
  EXPECT_EQ(mismatches_on_every_destination(graph), 0u);
}

TEST(StableRouteSolver, PeerRouteCrossesASiblingLink) {
  // p peers with dest; s is p's sibling with a customer c, a provider u and
  // a peer q. s holds a peer route, which reaches c but not u or q.
  topo::GraphBuilder builder;
  const auto dest = builder.add_as(1);
  const auto p = builder.add_as(2);
  const auto s = builder.add_as(3);
  const auto c = builder.add_as(4);
  const auto u = builder.add_as(5);
  const auto q = builder.add_as(6);
  builder.add_peer(dest, p);
  builder.add_sibling(p, s);
  builder.add_customer_provider(/*provider=*/s, /*customer=*/c);
  builder.add_customer_provider(/*provider=*/u, /*customer=*/s);
  builder.add_peer(s, q);
  const topo::AsGraph graph = std::move(builder).build();
  const RoutingTree tree = StableRouteSolver(graph).solve(dest);
  EXPECT_EQ(tree.route_class(p), RouteClass::Peer);
  ASSERT_TRUE(tree.reachable(s));
  EXPECT_EQ(tree.route_class(s), RouteClass::Peer);
  EXPECT_EQ(tree.path_of(s), (std::vector<NodeId>{s, p, dest}));
  EXPECT_EQ(tree.route_class(c), RouteClass::Provider);
  EXPECT_EQ(tree.path_length(c), 3u);
  EXPECT_FALSE(tree.reachable(u));
  EXPECT_FALSE(tree.reachable(q));
  EXPECT_EQ(mismatches_on_every_destination(graph), 0u);
}

TEST(StableRouteSolver, TiedNextHopsGoToTheLowerAsNumber) {
  // dest has providers a and b; x is a provider of both and c a customer of
  // both. The lower AS number, b's, sits on the higher node id, so a tie
  // broken by node id or by the first offer picks a instead.
  topo::GraphBuilder builder;
  const auto dest = builder.add_as(7);
  const auto a = builder.add_as(900);
  const auto b = builder.add_as(100);
  const auto x = builder.add_as(5);
  const auto c = builder.add_as(6);
  for (const NodeId hop : {a, b}) {
    builder.add_customer_provider(/*provider=*/hop, /*customer=*/dest);
    builder.add_customer_provider(/*provider=*/x, /*customer=*/hop);
    builder.add_customer_provider(/*provider=*/hop, /*customer=*/c);
  }
  const topo::AsGraph graph = std::move(builder).build();
  ASSERT_LT(a, b);
  const RoutingTree tree = StableRouteSolver(graph).solve(dest);
  EXPECT_EQ(tree.route_class(x), RouteClass::Customer);
  EXPECT_EQ(tree.next_hop(x), b);
  EXPECT_EQ(tree.route_class(c), RouteClass::Provider);
  EXPECT_EQ(tree.next_hop(c), b);
  EXPECT_EQ(mismatches_on_every_destination(graph), 0u);
}

/// Interns a full path (front() = owner) by extending from its tail.
PathId intern(PathTable& table, const std::vector<NodeId>& path) {
  PathId id = kNullPath;
  for (auto it = path.rbegin(); it != path.rend(); ++it)
    id = table.extend(*it, id);
  return id;
}

TEST(PathTable, InternDedupsAndSharesSuffixes) {
  PathTable table;
  const std::vector<NodeId> a{4, 2, 1};
  const std::vector<NodeId> b{5, 2, 1};
  const PathId pa = intern(table, a);
  const PathId pb = intern(table, b);
  EXPECT_NE(pa, kNullPath);
  EXPECT_NE(pa, pb);
  // Equal paths intern to the same id — the O(1) equality the RIB relies on.
  EXPECT_EQ(intern(table, a), pa);
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
  const PathId id = intern(table, path);
  for (NodeId node : path) EXPECT_TRUE(table.contains(id, node));
  EXPECT_FALSE(table.contains(id, 4));
  EXPECT_FALSE(table.contains(kNullPath, 9));
}

TEST(PathTable, NullAndInvalidIds) {
  PathTable table;
  EXPECT_EQ(table.length(kNullPath), 0u);
  EXPECT_TRUE(table.materialize(kNullPath).empty());
  EXPECT_THROW(table.head(kNullPath), Error);
  EXPECT_THROW(table.suffix(kNullPath), Error);
  EXPECT_THROW(table.head(99), Error);  // never minted
  EXPECT_THROW(table.extend(topo::kInvalidNode, kNullPath), Error);
}

TEST(PathTable, MaterializeIntoReusesScratch) {
  PathTable table;
  const PathId longer = intern(table, {8, 6, 4, 2});
  const PathId shorter = intern(table, {3, 2});
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
