#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analysis/symbolic_routes.hpp"
#include "analysis/verify.hpp"
#include "bgp/route_solver.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/alternates.hpp"
#include "core/export_policy.hpp"
#include "policy/policy_config.hpp"
#include "topology/as_graph.hpp"
#include "topology/generator.hpp"

namespace miro::bgp {

// Corrupts a solved tree's entries into states no correct solver run can
// produce, so the export-safety checker has something to convict.
struct RoutingTreeTestAccess {
  static void set(RoutingTree& tree, topo::NodeId node, topo::NodeId next_hop,
                  std::uint32_t length, RouteClass cls) {
    RoutingTree::Entry& entry = tree.entries_[node];
    entry.reachable = true;
    entry.next_hop = next_hop;
    entry.length = length;
    entry.cls = cls;
  }
};

}  // namespace miro::bgp

namespace miro::analysis {
namespace {

using bgp::RouteClass;
using bgp::RoutingTree;
using bgp::RoutingTreeTestAccess;
using bgp::StableRouteSolver;
using topo::AsGraph;
using topo::GraphBuilder;

std::size_t count_check(const Report& report, std::string_view id) {
  return static_cast<std::size_t>(std::count_if(
      report.diagnostics().begin(), report.diagnostics().end(),
      [&](const Diagnostic& d) { return d.check == id; }));
}

// Two tier-1 peers over a small provider hierarchy: a multi-homed middle
// tier, a multi-homed stub, and a sibling — every relationship kind, small
// enough to check routes by hand.
struct SmallHierarchy {
  AsGraph graph;
  topo::NodeId t1, t2, mid1, mid2, stub, sib;
  SmallHierarchy() {
    GraphBuilder builder;
    t1 = builder.add_as(1);
    t2 = builder.add_as(2);
    mid1 = builder.add_as(3);
    mid2 = builder.add_as(4);
    stub = builder.add_as(5);
    sib = builder.add_as(6);
    builder.add_peer(t1, t2);
    builder.add_customer_provider(t1, mid1);
    builder.add_customer_provider(t1, mid2);
    builder.add_customer_provider(t2, mid2);
    builder.add_customer_provider(mid1, stub);
    builder.add_customer_provider(mid2, stub);
    builder.add_sibling(mid2, sib);
    graph = std::move(builder).build();
  }
};

// Peer chain 1 -- 2 -- 3 -- 4 with the destination AS 10 a customer of
// AS 1: the customer route crosses exactly one peer link, so AS 3 and AS 4
// are unreachable under the conventional export rule. The minimal gadget
// where leaking peer routes onward changes the routing outcome.
struct PeerChain {
  AsGraph graph;
  topo::NodeId p, q, r, s, c;
  PeerChain() {
    GraphBuilder builder;
    p = builder.add_as(1);
    q = builder.add_as(2);
    r = builder.add_as(3);
    s = builder.add_as(4);
    c = builder.add_as(10);
    builder.add_peer(p, q);
    builder.add_peer(q, r);
    builder.add_peer(r, s);
    builder.add_customer_provider(p, c);
    graph = std::move(builder).build();
  }
};

void expect_maps_match(const AsGraph& graph, const SymbolicRouteMap& map,
                       const RoutingTree& tree) {
  ASSERT_EQ(map.destination(), tree.destination());
  for (topo::NodeId v = 0; v < graph.node_count(); ++v) {
    ASSERT_EQ(map.reachable(v), tree.reachable(v))
        << "reachability of AS " << graph.as_number(v) << " toward AS "
        << graph.as_number(tree.destination());
    if (!map.reachable(v)) continue;
    EXPECT_EQ(map.route_class(v), tree.route_class(v));
    EXPECT_EQ(map.path_length(v), tree.path_length(v));
    EXPECT_EQ(map.next_hop(v), tree.next_hop(v));
    EXPECT_EQ(map.path_of(v), tree.path_of(v));
  }
  EXPECT_EQ(map.reachable_count(), tree.reachable_count());
}

// ------------------------------------------------------------ exact layer

TEST(SymbolicFixpoint, MatchesSolverOnEveryDestination) {
  const SmallHierarchy fig;
  const SymbolicRouteEngine engine(fig.graph);
  const StableRouteSolver solver(fig.graph);
  for (topo::NodeId dest = 0; dest < fig.graph.node_count(); ++dest)
    expect_maps_match(fig.graph, engine.solve(dest), solver.solve(dest));
}

TEST(SymbolicFixpoint, PeerRoutesStopAtTheFirstPeerLink) {
  const PeerChain fig;
  const SymbolicRouteEngine engine(fig.graph);
  const SymbolicRouteMap map = engine.solve(fig.c);
  EXPECT_TRUE(map.reachable(fig.p));
  EXPECT_EQ(map.route_class(fig.p), RouteClass::Customer);
  ASSERT_TRUE(map.reachable(fig.q));
  EXPECT_EQ(map.route_class(fig.q), RouteClass::Peer);
  EXPECT_EQ(map.path_length(fig.q), 2u);
  EXPECT_FALSE(map.reachable(fig.r));
  EXPECT_FALSE(map.reachable(fig.s));
  expect_maps_match(fig.graph, map, StableRouteSolver(fig.graph).solve(fig.c));
}

TEST(SymbolicFixpoint, SolveAvoidingMatchesSolver) {
  const SmallHierarchy fig;
  const SymbolicRouteEngine engine(fig.graph);
  const StableRouteSolver solver(fig.graph);
  for (topo::NodeId dest = 0; dest < fig.graph.node_count(); ++dest) {
    for (topo::NodeId avoid = 0; avoid < fig.graph.node_count(); ++avoid) {
      if (avoid == dest) continue;
      expect_maps_match(fig.graph, engine.solve_avoiding(dest, avoid),
                        solver.solve_avoiding(dest, avoid));
    }
  }
}

TEST(SymbolicFixpoint, FeasibilityAgreesWithReachability) {
  for (const bool chain : {false, true}) {
    const SmallHierarchy hierarchy;
    const PeerChain peers;
    const AsGraph& graph = chain ? peers.graph : hierarchy.graph;
    const SymbolicRouteEngine engine(graph);
    for (topo::NodeId dest = 0; dest < graph.node_count(); ++dest) {
      const SymbolicRouteMap map = engine.solve(dest);
      for (topo::NodeId v = 0; v < graph.node_count(); ++v) {
        EXPECT_EQ(map.feasible(v), map.reachable(v));
        if (map.reachable(v)) {
          // The stable route itself is a feasible chain of its class, and no
          // shorter chain of that class can exist below the may-analysis.
          EXPECT_LE(map.feasible_length(v, map.route_class(v)),
                    map.path_length(v));
        }
      }
    }
  }
}

// The message of the miro::Error solve(dest) throws; "" when it solves.
std::string refusal(const SymbolicRouteEngine& engine, topo::NodeId dest) {
  try {
    engine.solve(dest);
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

TEST(SymbolicFixpoint, SweepBoundThrowsBeforeLooping) {
  const SmallHierarchy fig;
  SymbolicOptions options;
  options.max_sweeps = 1;  // any non-trivial graph needs a second sweep
  const SymbolicRouteEngine engine(fig.graph, options);
  EXPECT_NE(refusal(engine, fig.stub).find("still improving at max_sweeps"),
            std::string::npos);
  const SymbolicRouteMap map = SymbolicRouteEngine(fig.graph).solve(fig.stub);
  EXPECT_GE(map.sweeps(), 2u);
  EXPECT_GT(map.memory_bytes(), 0u);
}

TEST(SymbolicFixpoint, SolveAvoidingRejectsAnOutOfRangeAs) {
  const AsGraph graph = topo::generate(topo::profile("tiny"));
  const SymbolicRouteEngine engine(graph);
  const auto n = static_cast<topo::NodeId>(graph.node_count());
  EXPECT_THROW(engine.solve_avoiding(0, n), Error);
  EXPECT_THROW(engine.solve_avoiding(0, n + 5), Error);
  EXPECT_THROW(engine.solve_avoiding(0, topo::kInvalidNode), Error);
  EXPECT_THROW(engine.solve_avoiding(0, 0), Error);
  EXPECT_LT(engine.solve_avoiding(0, n - 1).reachable_count(), n);
}

// ------------------------------------------------- dirty set vs full sweeps

// The reference fixpoint without a dirty set: every node but the
// destination and the avoided AS re-evaluated on every Gauss-Seidel sweep,
// in node order, until a sweep changes nothing. `leak` applies the same
// route leak as SymbolicOptions::inject_export_bug. The engine must replay
// it exactly: same entries, same feasible lengths, same sweep count.
// Alongside, it counts the evaluations a node-level dirty set would let
// through: a node is due once any neighbor moved since its last
// evaluation (the destination's neighbors before the first sweep). The
// engine may skip more, never fewer.
struct FullSweepEntry {
  bool reachable = false;
  RouteClass cls = RouteClass::Provider;
  std::uint32_t length = 0;
  topo::NodeId next_hop = topo::kInvalidNode;
  std::uint32_t feasible_length[4] = {kInfeasibleLength, kInfeasibleLength,
                                      kInfeasibleLength, kInfeasibleLength};
};

struct FullSweeps {
  std::vector<FullSweepEntry> entries;
  std::size_t sweeps = 0;
  std::size_t node_dirty_evaluations = 0;
};

FullSweeps full_sweeps(const AsGraph& graph, topo::NodeId destination,
                       topo::NodeId avoid, bool leak) {
  auto exports = [leak](RouteClass cls, topo::Relationship to_rel) {
    return (leak && cls == RouteClass::Peer) ||
           bgp::conventional_export_allows(cls, to_rel);
  };
  FullSweeps out;
  out.entries.assign(graph.node_count(), {});
  FullSweepEntry& origin = out.entries[destination];
  origin.reachable = true;
  origin.next_hop = destination;
  origin.cls = RouteClass::Self;
  origin.feasible_length[bgp::rank(RouteClass::Self)] = 0;
  std::vector<bool> due(graph.node_count(), false);
  auto wake_neighbors = [&](topo::NodeId v) {
    for (const topo::Neighbor& n : graph.neighbors(v))
      if (n.node != destination && n.node != avoid) due[n.node] = true;
  };
  wake_neighbors(destination);
  bool changed = true;
  while (changed) {
    require(out.sweeps < graph.node_count() + 2,
            "full_sweeps: fixpoint did not stabilize");
    ++out.sweeps;
    changed = false;
    for (topo::NodeId v = 0; v < graph.node_count(); ++v) {
      if (v == destination || v == avoid) continue;
      if (due[v]) {
        due[v] = false;
        ++out.node_dirty_evaluations;
      }
      bool moved = false;
      FullSweepEntry& entry = out.entries[v];
      bool best_reachable = false;
      RouteClass best_cls = RouteClass::Provider;
      std::uint32_t best_length = 0;
      topo::NodeId best_hop = topo::kInvalidNode;
      for (const topo::Neighbor& n : graph.neighbors(v)) {
        if (n.node == avoid) continue;
        const FullSweepEntry& theirs = out.entries[n.node];
        const topo::Relationship v_rel = topo::reverse(n.rel);
        if (theirs.reachable && exports(theirs.cls, v_rel)) {
          const RouteClass cls = bgp::classify(n.rel, theirs.cls);
          const auto candidate = std::make_tuple(
              bgp::rank(cls), theirs.length + 1, graph.as_number(n.node));
          if (!best_reachable ||
              candidate < std::make_tuple(bgp::rank(best_cls), best_length,
                                          graph.as_number(best_hop))) {
            best_reachable = true;
            best_cls = cls;
            best_length = theirs.length + 1;
            best_hop = n.node;
          }
        }
        for (int r = 0; r < 4; ++r) {
          const std::uint32_t length = theirs.feasible_length[r];
          if (length == kInfeasibleLength) continue;
          const auto their_cls = static_cast<RouteClass>(r);
          if (!exports(their_cls, v_rel)) continue;
          std::uint32_t& slot =
              entry.feasible_length[bgp::rank(bgp::classify(n.rel, their_cls))];
          if (length + 1 < slot) {
            slot = length + 1;
            moved = true;
          }
        }
      }
      if (best_reachable != entry.reachable ||
          (best_reachable &&
           (best_cls != entry.cls || best_length != entry.length ||
            best_hop != entry.next_hop))) {
        entry.reachable = best_reachable;
        entry.cls = best_cls;
        entry.length = best_length;
        entry.next_hop = best_hop;
        moved = true;
      }
      if (moved) {
        changed = true;
        wake_neighbors(v);
      }
    }
  }
  return out;
}

// Solves (destination, avoid) with the engine and with the full sweeps
// under the engine's export rule. Returns "" when the map replays the full
// sweeps exactly with no more evaluations than a node-level dirty set, or
// when both refuse at the sweep bound (a leaky export rule can count to
// infinity); otherwise the first difference.
std::string replay_diff(const SymbolicRouteEngine& engine,
                        topo::NodeId destination, topo::NodeId avoid) {
  std::optional<FullSweeps> ref;
  std::optional<SymbolicRouteMap> map;
  try {
    ref = full_sweeps(engine.graph(), destination, avoid,
                      engine.options().inject_export_bug);
  } catch (const Error&) {
  }
  try {
    map = avoid == topo::kInvalidNode
              ? engine.solve(destination)
              : engine.solve_avoiding(destination, avoid);
  } catch (const Error&) {
  }
  if (!ref || !map) {
    if (ref) return "the engine refused where the full sweeps stabilized";
    if (map) return "the engine stabilized where the full sweeps refused";
    return "";
  }
  if (map->sweeps() != ref->sweeps)
    return "sweeps " + std::to_string(map->sweeps()) + " vs " +
           std::to_string(ref->sweeps);
  if (map->evaluations() > ref->node_dirty_evaluations)
    return "evaluations " + std::to_string(map->evaluations()) +
           " above the node-level dirty set's " +
           std::to_string(ref->node_dirty_evaluations);
  for (topo::NodeId v = 0; v < ref->entries.size(); ++v) {
    const FullSweepEntry& e = ref->entries[v];
    if (map->reachable(v) != e.reachable || map->route_class(v) != e.cls ||
        map->path_length(v) != e.length || map->next_hop(v) != e.next_hop)
      return "exact entry of node " + std::to_string(v);
    for (int r = 0; r < 4; ++r)
      if (map->feasible_length(v, static_cast<RouteClass>(r)) !=
          e.feasible_length[r])
        return "feasible length " + std::to_string(r) + " of node " +
               std::to_string(v);
  }
  return "";
}

// The tiny profile and three gao2005 draws at scale 0.1.
std::vector<AsGraph> replay_graphs() {
  std::vector<AsGraph> graphs;
  graphs.push_back(topo::generate(topo::profile("tiny")));
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    topo::GeneratorParams params = topo::profile("gao2005", 0.1);
    params.seed = seed;
    graphs.push_back(topo::generate(params));
  }
  return graphs;
}

// Replays 20 sampled destinations of `graph`: each solved avoiding its
// first neighbor, a random stub and the widest AS, and solved by the leaky
// engine. Counts the leaky solves that stabilized into `leaky_stabilized`.
void expect_sampled_replays(const AsGraph& graph,
                            std::size_t& leaky_stabilized) {
  const auto n = static_cast<topo::NodeId>(graph.node_count());
  const SymbolicRouteEngine engine(graph);
  SymbolicOptions leaky;
  leaky.inject_export_bug = true;
  const SymbolicRouteEngine buggy(graph, leaky);

  topo::NodeId hub = 0;
  std::vector<topo::NodeId> stubs;
  for (topo::NodeId v = 0; v < n; ++v) {
    if (graph.degree(v) > graph.degree(hub)) hub = v;
    if (graph.is_stub(v)) stubs.push_back(v);
  }
  ASSERT_FALSE(stubs.empty());
  Rng rng(n);
  for (const std::size_t index : rng.sample_indices(n, 20)) {
    const auto dest = static_cast<topo::NodeId>(index);
    ASSERT_FALSE(graph.neighbors(dest).empty());
    const topo::NodeId stub = stubs[rng.next_below(stubs.size())];
    for (const topo::NodeId avoid :
         {graph.neighbors(dest).front().node, stub, hub}) {
      if (avoid == dest) continue;
      ASSERT_EQ(replay_diff(engine, dest, avoid), "")
          << "solve_avoiding(" << dest << ", " << avoid << ") on " << n
          << " ASes";
    }
    ASSERT_EQ(replay_diff(buggy, dest, topo::kInvalidNode), "")
        << "leaky solve(" << dest << ") on " << n << " ASes";
    try {
      buggy.solve(dest);
      ++leaky_stabilized;
    } catch (const Error&) {
    }
  }
}

TEST(SymbolicFixpoint, DirtySetReplaysTheFullSweeps) {
  std::size_t leaky_stabilized = 0;
  for (const AsGraph& graph : replay_graphs()) {
    const auto n = static_cast<topo::NodeId>(graph.node_count());
    const SymbolicRouteEngine engine(graph);
    for (topo::NodeId dest = 0; dest < n; ++dest)
      ASSERT_EQ(replay_diff(engine, dest, topo::kInvalidNode), "")
          << "solve(" << dest << ") on " << n << " ASes";
    ASSERT_NO_FATAL_FAILURE(expect_sampled_replays(graph, leaky_stabilized));
  }
  // The leak must not only be compared through refusals.
  EXPECT_GT(leaky_stabilized, 0u);
}

// internet2006 @ 0.1 has dozens of ASes with more than 63 neighbors, where
// the gao2005 draws above have one: the wide ASes whose neighbor lists
// outrun a 64-bit per-neighbor mask.
TEST(SymbolicFixpoint, DirtySetReplaysTheFullSweepsOnInternet2006) {
  const AsGraph graph = topo::generate(topo::profile("internet2006", 0.1));
  std::size_t wide = 0;
  for (topo::NodeId v = 0; v < graph.node_count(); ++v)
    if (graph.degree(v) > 63) ++wide;
  EXPECT_GE(wide, 30u);
  std::size_t leaky_stabilized = 0;
  ASSERT_NO_FATAL_FAILURE(expect_sampled_replays(graph, leaky_stabilized));
  EXPECT_GT(leaky_stabilized, 0u);
}

// v's best offer worsens while its runner-up never changes. To d, v first
// takes (Provider, 3) via p1 over the equal offer of p2 (higher ASN). In
// sweep 3, p1 trades its provider route for a longer peer route through r,
// so its offer to v grows to (Provider, 5). v must fall back to p2's
// unchanged (Provider, 3), which only a look past the neighbors that moved
// finds.
TEST(SymbolicFixpoint, WorsenedBestOfferForcesARescan) {
  GraphBuilder builder;
  const topo::NodeId r = builder.add_as(1);
  const topo::NodeId a = builder.add_as(2);
  const topo::NodeId b = builder.add_as(3);
  const topo::NodeId d = builder.add_as(4);
  const topo::NodeId top = builder.add_as(5);
  const topo::NodeId p1 = builder.add_as(6);
  const topo::NodeId p2 = builder.add_as(7);
  const topo::NodeId v = builder.add_as(8);
  builder.add_customer_provider(b, d);
  builder.add_customer_provider(a, b);
  builder.add_customer_provider(r, a);
  builder.add_customer_provider(top, d);
  builder.add_customer_provider(top, p1);
  builder.add_customer_provider(top, p2);
  builder.add_customer_provider(p1, v);
  builder.add_customer_provider(p2, v);
  builder.add_peer(r, p1);
  const AsGraph graph = std::move(builder).build();
  const SymbolicRouteEngine engine(graph);
  ASSERT_EQ(replay_diff(engine, d, topo::kInvalidNode), "");
  const SymbolicRouteMap map = engine.solve(d);
  EXPECT_EQ(map.sweeps(), 4u);
  EXPECT_EQ(map.route_class(p1), RouteClass::Peer);
  EXPECT_EQ(map.path_length(p1), 4u);
  EXPECT_EQ(map.next_hop(p1), r);
  EXPECT_EQ(map.route_class(v), RouteClass::Provider);
  EXPECT_EQ(map.path_length(v), 3u);
  EXPECT_EQ(map.next_hop(v), p2);
}

// A hub with 70 customers whose only route to the destination comes from
// its 66th neighbor. Every neighbor from the 64th on shares one bit of a
// 64-bit per-neighbor mask, so the hub must read that whole tail.
TEST(SymbolicFixpoint, WideNodeHearsItsTail) {
  GraphBuilder builder;
  const topo::NodeId hub = builder.add_as(1);
  std::vector<topo::NodeId> spokes;
  for (topo::AsNumber asn = 2; asn <= 71; ++asn) {
    spokes.push_back(builder.add_as(asn));
    builder.add_customer_provider(hub, spokes.back());
  }
  const topo::NodeId feeder = spokes[65];
  const topo::NodeId dest = builder.add_as(100);
  builder.add_customer_provider(feeder, dest);
  const AsGraph graph = std::move(builder).build();
  ASSERT_EQ(graph.neighbors(hub)[65].node, feeder);

  const SymbolicRouteEngine engine(graph);
  for (topo::NodeId to = 0; to < graph.node_count(); ++to)
    ASSERT_EQ(replay_diff(engine, to, topo::kInvalidNode), "")
        << "solve(" << to << ")";
  const SymbolicRouteMap map = engine.solve(dest);
  ASSERT_TRUE(map.reachable(hub));
  EXPECT_EQ(map.route_class(hub), RouteClass::Customer);
  EXPECT_EQ(map.path_length(hub), 2u);
  EXPECT_EQ(map.next_hop(hub), feeder);
  EXPECT_EQ(map.reachable_count(), graph.node_count());
}

// The injected leak makes some tiny destinations count to infinity. The
// hierarchy is acyclic, so the refusal must blame the export relation and
// the leak, never a provider cycle.
TEST(SymbolicFixpoint, LeakRefusalNamesTheLeakNotACycle) {
  const AsGraph graph = topo::generate(topo::profile("tiny"));
  SymbolicOptions leaky;
  leaky.inject_export_bug = true;
  const SymbolicRouteEngine engine(graph, leaky);
  ASSERT_TRUE(engine.preconditions().empty());
  std::size_t refused = 0;
  for (topo::NodeId dest = 0; dest < graph.node_count(); ++dest) {
    const std::string what = refusal(engine, dest);
    if (what.empty()) continue;
    ++refused;
    EXPECT_NE(what.find("the export relation let routes keep growing"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("injected export bug"), std::string::npos) << what;
    EXPECT_EQ(what.find("cycl"), std::string::npos) << what;
  }
  EXPECT_GT(refused, 0u);
}

// With S the full sweeps' count, max_sweeps = S solves in S sweeps and
// max_sweeps = S - 1 throws.
void expect_sweep_bound(const AsGraph& graph, topo::NodeId dest) {
  const std::size_t sweeps =
      full_sweeps(graph, dest, topo::kInvalidNode, false).sweeps;
  ASSERT_GE(sweeps, 2u);
  SymbolicOptions options;
  options.max_sweeps = sweeps;
  EXPECT_EQ(SymbolicRouteEngine(graph, options).solve(dest).sweeps(), sweeps);
  options.max_sweeps = sweeps - 1;
  EXPECT_THROW(SymbolicRouteEngine(graph, options).solve(dest), Error)
      << "destination " << dest << " needs " << sweeps << " sweeps";
}

TEST(SymbolicFixpoint, SweepBoundMatchesTheFullSweeps) {
  // A star around the destination: the leaves move in the first sweep and
  // dirty no one, so the confirming second sweep evaluates nothing.
  GraphBuilder star_builder;
  const topo::NodeId hub = star_builder.add_as(1);
  for (topo::AsNumber asn = 2; asn <= 4; ++asn)
    star_builder.add_customer_provider(hub, star_builder.add_as(asn));
  const AsGraph star = std::move(star_builder).build();
  expect_sweep_bound(star, hub);

  for (const AsGraph& graph : replay_graphs()) {
    Rng rng(graph.node_count());
    for (const std::size_t index : rng.sample_indices(graph.node_count(), 6))
      expect_sweep_bound(graph, static_cast<topo::NodeId>(index));
  }
}

TEST(SymbolicFixpoint, DirtySetSkipsMostEvaluations) {
  // A full sweep evaluates every node but the destination; the dirty set
  // lets through only nodes whose neighbors' offers to them changed, fewer
  // than the nodes with a neighbor that moved at all.
  const AsGraph graph = topo::generate(topo::profile("gao2005", 1.0));
  const SymbolicRouteEngine engine(graph);
  std::size_t evaluations = 0;
  std::size_t node_level = 0;
  std::size_t full = 0;
  Rng rng(1);
  for (const std::size_t index : rng.sample_indices(graph.node_count(), 8)) {
    const auto dest = static_cast<topo::NodeId>(index);
    const SymbolicRouteMap map = engine.solve(dest);
    EXPECT_GT(map.evaluations(), 0u);
    evaluations += map.evaluations();
    node_level += full_sweeps(graph, dest, topo::kInvalidNode, false)
                      .node_dirty_evaluations;
    full += map.sweeps() * (graph.node_count() - 1);
  }
  EXPECT_LT(2 * evaluations, full)
      << evaluations << " evaluations against " << full << " in full sweeps";
  EXPECT_LT(evaluations, node_level)
      << evaluations << " evaluations against " << node_level
      << " for a node-level dirty set";
}

TEST(SymbolicFixpoint, ProviderCyclePreconditionFails) {
  GraphBuilder builder;
  const topo::NodeId a = builder.add_as(1);
  const topo::NodeId b = builder.add_as(2);
  const topo::NodeId c = builder.add_as(3);
  builder.add_customer_provider(a, b);
  builder.add_customer_provider(b, c);
  builder.add_customer_provider(c, a);
  const AsGraph graph = std::move(builder).build();
  const SymbolicRouteEngine engine(graph);
  const Report report = engine.preconditions("cycle");
  EXPECT_EQ(count_check(report, "verify.precondition.provider-cycle"), 1u);
  EXPECT_GT(report.error_count(), 0u);
  // A refusal on this graph blames the cycle.
  SymbolicOptions options;
  options.max_sweeps = 1;
  EXPECT_NE(refusal(SymbolicRouteEngine(graph, options), a)
                .find("the provider hierarchy is cyclic"),
            std::string::npos);
}

// ----------------------------------------------------------- avoid queries

TEST(SymbolicAvoid, PredictionMatchesSimulatorOnHandGraph) {
  const SmallHierarchy fig;
  const SymbolicRouteEngine engine(fig.graph);
  const StableRouteSolver solver(fig.graph);
  const core::AlternatesEngine alternates(solver);
  std::size_t tuples = 0;
  for (topo::NodeId dest = 0; dest < fig.graph.node_count(); ++dest) {
    const RoutingTree tree = solver.solve(dest);
    const SymbolicRouteMap map = engine.solve(dest);
    for (topo::NodeId source = 0; source < fig.graph.node_count(); ++source) {
      if (source == dest || !tree.reachable(source)) continue;
      const std::vector<topo::NodeId> path = tree.path_of(source);
      for (std::size_t i = 1; i + 1 < path.size(); ++i) {
        const topo::NodeId avoid = path[i];
        for (const core::ExportPolicy policy : core::kAllPolicies) {
          const core::AlternatesEngine::AvoidResult simulated =
              alternates.avoid_as(tree, source, avoid, policy);
          const SymbolicRouteEngine::AvoidPrediction predicted =
              engine.predict_avoid(map, source, avoid, policy);
          EXPECT_EQ(predicted.success, simulated.success);
          EXPECT_EQ(predicted.bgp_success, simulated.bgp_success);
          EXPECT_EQ(predicted.ases_contacted, simulated.ases_contacted);
          EXPECT_EQ(predicted.paths_received, simulated.paths_received);
          if (predicted.success) {
            // The witness must be a real path of the graph between the
            // queried endpoints that misses the avoided AS.
            ASSERT_GE(predicted.witness.size(), 2u);
            EXPECT_EQ(predicted.witness.front(), source);
            EXPECT_EQ(predicted.witness.back(), dest);
            EXPECT_EQ(std::find(predicted.witness.begin(),
                                predicted.witness.end(), avoid),
                      predicted.witness.end());
            for (std::size_t j = 0; j + 1 < predicted.witness.size(); ++j)
              EXPECT_TRUE(fig.graph.has_edge(predicted.witness[j],
                                             predicted.witness[j + 1]));
          }
          ++tuples;
        }
      }
    }
  }
  EXPECT_GT(tuples, 0u);
}

// ------------------------------------------------------------ route leaks

TEST(ExportSafety, CleanStatesPass) {
  const SmallHierarchy fig;
  const StableRouteSolver solver(fig.graph);
  const SymbolicRouteEngine engine(fig.graph);
  for (topo::NodeId dest = 0; dest < fig.graph.node_count(); ++dest) {
    EXPECT_EQ(
        check_export_safety(fig.graph, solver.solve(dest), "t").error_count(),
        0u);
    EXPECT_EQ(
        check_export_safety(fig.graph, engine.solve(dest), "t").error_count(),
        0u);
  }
}

TEST(ExportSafety, ConvictsALeakedPeerRoute) {
  const PeerChain fig;
  RoutingTree tree = StableRouteSolver(fig.graph).solve(fig.c);
  // AS 2 "exports" its peer route onward to AS 3 — the classic route leak.
  RoutingTreeTestAccess::set(tree, fig.r, fig.q, 3, RouteClass::Peer);
  const Report report = check_export_safety(fig.graph, tree, "leak");
  EXPECT_EQ(count_check(report, "verify.leak.export-violation"), 1u);
  EXPECT_EQ(report.error_count(), 1u);
}

TEST(ExportSafety, ConvictsAMisclassifiedRoute) {
  const PeerChain fig;
  RoutingTree tree = StableRouteSolver(fig.graph).solve(fig.c);
  // AS 2 learned the route over a peer link but claims Customer class.
  RoutingTreeTestAccess::set(tree, fig.q, fig.p, 2, RouteClass::Customer);
  const Report report = check_export_safety(fig.graph, tree, "leak");
  EXPECT_EQ(count_check(report, "verify.leak.class"), 1u);
  EXPECT_EQ(report.error_count(), 1u);
}

TEST(ExportSafety, ConvictsAWrongPathLength) {
  const PeerChain fig;
  RoutingTree tree = StableRouteSolver(fig.graph).solve(fig.c);
  RoutingTreeTestAccess::set(tree, fig.q, fig.p, 5, RouteClass::Peer);
  const Report report = check_export_safety(fig.graph, tree, "leak");
  EXPECT_EQ(count_check(report, "verify.leak.length"), 1u);
  EXPECT_EQ(report.error_count(), 1u);
}

TEST(ExportSafety, ConvictsAnUnreachableNextHop) {
  const PeerChain fig;
  RoutingTree tree = StableRouteSolver(fig.graph).solve(fig.c);
  // AS 3 claims a route via AS 4, which holds no route at all.
  RoutingTreeTestAccess::set(tree, fig.r, fig.s, 3, RouteClass::Peer);
  const Report report = check_export_safety(fig.graph, tree, "leak");
  EXPECT_EQ(count_check(report, "verify.leak.next-hop"), 1u);
  EXPECT_EQ(report.error_count(), 1u);
}

TEST(ExportSafety, ConvictsACorruptedOrigin) {
  const PeerChain fig;
  RoutingTree tree = StableRouteSolver(fig.graph).solve(fig.c);
  RoutingTreeTestAccess::set(tree, fig.c, fig.p, 0, RouteClass::Self);
  const Report report = check_export_safety(fig.graph, tree, "leak");
  EXPECT_EQ(count_check(report, "verify.leak.origin"), 1u);
}

// ----------------------------------------------------------- differential

TEST(Differential, AgreesWithSimulatorOnSeededPairs) {
  // Ten seeded (profile, seed) pairs: the acceptance bar for the oracle.
  for (const char* profile : {"gao2003", "gao2005"}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const AsGraph graph = topo::generate(topo::profile(profile, 0.08));
      DifferentialOptions options;
      options.seed = seed;
      options.destination_samples = 4;
      options.sources_per_destination = 5;
      const DifferentialOutcome outcome =
          differential_check(graph, options, profile);
      EXPECT_TRUE(outcome.ok())
          << profile << " seed " << seed << ":\n" << outcome.report.text();
      EXPECT_GT(outcome.destinations, 0u);
      EXPECT_GT(outcome.entries, 0u);
      EXPECT_GT(outcome.tuples, 0u);
      EXPECT_EQ(outcome.entry_mismatches, 0u);
      EXPECT_EQ(outcome.avoid_mismatches, 0u);
      EXPECT_DOUBLE_EQ(outcome.entry_agree(), 1.0);
      EXPECT_DOUBLE_EQ(outcome.avoid_agree(), 1.0);
      EXPECT_EQ(count_check(outcome.report, "verify.diff.summary"), 1u);
    }
  }
}

TEST(Differential, InjectedExportBugFailsLoudly) {
  // The oracle must convict a deliberately mis-implemented export rule, not
  // paper over it: on the peer chain the leak makes AS 3 reachable in the
  // symbolic plane only.
  const PeerChain fig;
  DifferentialOptions options;
  options.seed = 7;
  options.engine.inject_export_bug = true;
  const DifferentialOutcome outcome =
      differential_check(fig.graph, options, "bug");
  EXPECT_FALSE(outcome.ok());
  EXPECT_GT(outcome.entry_mismatches, 0u);
  EXPECT_LT(outcome.entry_agree(), 1.0);
  EXPECT_GT(count_check(outcome.report, "verify.diff.entry"), 0u);
}

TEST(Differential, InjectedBugAlsoTripsTheLeakChecker) {
  const PeerChain fig;
  SymbolicOptions options;
  options.inject_export_bug = true;
  const SymbolicRouteEngine buggy(fig.graph, options);
  const SymbolicRouteMap map = buggy.solve(fig.c);
  EXPECT_TRUE(map.reachable(fig.r));  // the leak propagated
  const Report report = check_export_safety(fig.graph, map, "bug");
  EXPECT_GT(count_check(report, "verify.leak.export-violation"), 0u);
}

TEST(Differential, InjectedBugCaughtOnGeneratedProfile) {
  const AsGraph graph = topo::generate(topo::profile("gao2005", 0.08));
  DifferentialOptions options;
  options.seed = 3;
  options.destination_samples = 5;
  options.engine.inject_export_bug = true;
  EXPECT_FALSE(differential_check(graph, options, "bug").ok());
}

// ---------------------------------------------------------------- queries

TEST(VerifyQuery, ParsesReachAndAvoidSpecs) {
  const VerifyQuery reach = VerifyQuery::parse("reach:5:10.0.0.2");
  EXPECT_EQ(reach.kind, VerifyQuery::Kind::Reach);
  EXPECT_EQ(reach.source, "5");
  EXPECT_EQ(reach.destination, "10.0.0.2");
  const VerifyQuery avoid = VerifyQuery::parse("avoid:65001:65020:7007");
  EXPECT_EQ(avoid.kind, VerifyQuery::Kind::Avoid);
  EXPECT_EQ(avoid.avoid, "7007");
  for (const char* bad : {"", "reach", "reach:1", "reach:1:2:3", "avoid:1:2",
                          "avoid:1:2:3:4", "jump:1:2", "reach::2",
                          "avoid:1:2:"}) {
    EXPECT_THROW(VerifyQuery::parse(bad), Error) << bad;
  }
}

TEST(VerifyQuery, SyntheticPrefixesAndEndpointResolution) {
  EXPECT_EQ(synthetic_prefix(5).to_string(), "10.0.5.0/24");
  EXPECT_EQ(synthetic_prefix(65001).to_string(), "10.253.233.0/24");
  const SmallHierarchy fig;
  EXPECT_EQ(resolve_endpoint(fig.graph, "5"), fig.stub);
  EXPECT_EQ(resolve_endpoint(fig.graph, "10.0.5.77"), fig.stub);
  EXPECT_EQ(resolve_endpoint(fig.graph, "10.0.1.1"), fig.t1);
  EXPECT_THROW(resolve_endpoint(fig.graph, "99"), Error);
  EXPECT_THROW(resolve_endpoint(fig.graph, "10.9.9.9"), Error);
  EXPECT_THROW(resolve_endpoint(fig.graph, "not-an-as"), Error);
  EXPECT_THROW(resolve_endpoint(fig.graph, "256.1.1.1"), Error);

  // AS numbers past 16 bits get /24s of their own — AS n and AS n + 65536
  // differ — and each address names the AS whose /24 holds it.
  GraphBuilder builder;
  const topo::NodeId as1 = builder.add_as(1);
  const topo::NodeId as2 = builder.add_as(2);
  const topo::NodeId as65537 = builder.add_as(65537);
  const topo::NodeId as65538 = builder.add_as(65538);
  builder.add_customer_provider(as1, as2);
  builder.add_customer_provider(as1, as65537);
  builder.add_customer_provider(as2, as65538);
  const AsGraph wide = std::move(builder).build();
  EXPECT_EQ(synthetic_prefix(1).to_string(), "10.0.1.0/24");
  EXPECT_EQ(synthetic_prefix(65537).to_string(), "11.0.1.0/24");
  EXPECT_EQ(synthetic_prefix(65538).to_string(), "11.0.2.0/24");
  EXPECT_EQ(synthetic_prefix((1u << 24) - 1).to_string(), "9.255.255.0/24");
  EXPECT_THROW(synthetic_prefix(1u << 24), Error);
  EXPECT_EQ(resolve_endpoint(wide, "10.0.1.1"), as1);
  EXPECT_EQ(resolve_endpoint(wide, "10.0.2.1"), as2);
  EXPECT_EQ(resolve_endpoint(wide, "11.0.1.1"), as65537);
  EXPECT_EQ(resolve_endpoint(wide, "11.0.2.200"), as65538);
  EXPECT_EQ(resolve_endpoint(wide, "65538"), as65538);
  EXPECT_THROW(resolve_endpoint(wide, "11.0.3.1"), Error);
  EXPECT_THROW(resolve_endpoint(wide, "9.255.255.1"), Error);
}

TEST(VerifyNetwork, ReachAndAvoidQueriesProduceWitnesses) {
  const SmallHierarchy fig;
  VerifyOptions options;
  options.queries.push_back(VerifyQuery::parse("reach:5:2"));
  options.queries.push_back(VerifyQuery::parse("avoid:5:2:4"));
  const Report report = verify_network(fig.graph, options, "hand");
  EXPECT_EQ(report.error_count(), 0u) << report.text();
  EXPECT_EQ(count_check(report, "verify.query.reach"), 1u);
  EXPECT_EQ(count_check(report, "verify.query.avoid"), 1u);
  EXPECT_EQ(count_check(report, "verify.sweep.summary"), 1u);
}

TEST(VerifyNetwork, UnreachablePairIsAnError) {
  const PeerChain fig;
  VerifyOptions options;
  options.queries.push_back(VerifyQuery::parse("reach:3:10"));
  const Report report = verify_network(fig.graph, options, "chain");
  EXPECT_EQ(count_check(report, "verify.query.unreachable"), 1u);
  EXPECT_GT(report.error_count(), 0u);
}

TEST(VerifyNetwork, AvoidingACutVertexIsInfeasible) {
  // 1 <- 2 <- 3 provider chain: AS 2 is the only way from AS 3 to AS 1.
  GraphBuilder builder;
  const topo::NodeId top = builder.add_as(1);
  const topo::NodeId mid = builder.add_as(2);
  const topo::NodeId leaf = builder.add_as(3);
  builder.add_customer_provider(top, mid);
  builder.add_customer_provider(mid, leaf);
  const AsGraph graph = std::move(builder).build();
  (void)top;
  (void)mid;
  (void)leaf;
  VerifyOptions options;
  options.queries.push_back(VerifyQuery::parse("avoid:3:1:2"));
  const Report report = verify_network(graph, options, "cut");
  EXPECT_EQ(count_check(report, "verify.query.avoid-infeasible"), 1u);
  EXPECT_GT(report.error_count(), 0u);
}

TEST(VerifyNetwork, AvoidEndpointCollisionThrows) {
  const SmallHierarchy fig;
  VerifyOptions options;
  options.queries.push_back(VerifyQuery::parse("avoid:5:2:5"));
  EXPECT_THROW(verify_network(fig.graph, options, "hand"), Error);
}

TEST(VerifyNetwork, ProviderCycleStopsVerification) {
  GraphBuilder builder;
  const topo::NodeId a = builder.add_as(1);
  const topo::NodeId b = builder.add_as(2);
  const topo::NodeId c = builder.add_as(3);
  builder.add_customer_provider(a, b);
  builder.add_customer_provider(b, c);
  builder.add_customer_provider(c, a);
  const AsGraph graph = std::move(builder).build();
  const Report report = verify_network(graph, {}, "cycle");
  EXPECT_GT(count_check(report, "verify.precondition.provider-cycle"), 0u);
  EXPECT_EQ(count_check(report, "verify.sweep.summary"), 0u);
}

TEST(VerifyNetwork, DifferentialRoundMergesIntoTheReport) {
  const SmallHierarchy fig;
  VerifyOptions options;
  options.differential = true;
  options.diff.destination_samples = 3;
  const Report report = verify_network(fig.graph, options, "hand");
  EXPECT_EQ(report.error_count(), 0u) << report.text();
  EXPECT_EQ(count_check(report, "verify.diff.summary"), 1u);
}

// ----------------------------------------------------------- admissibility

constexpr std::string_view kRequester = R"(router bgp 65001

ip as-path access-list 10 permit _7007_

route-map transit-in permit 10
 match as-path 10
 try negotiation avoid-7007

negotiation avoid-7007
 match all path ^65010_
 start negotiation with maximum cost 50

neighbor 10.0.0.1 remote-as 65010
neighbor 10.0.0.1 route-map transit-in in
)";

constexpr std::string_view kResponder = R"(router bgp 65010

accept negotiation from as 65001 65002
 when tunnel_number < 100

negotiation filter pricing
 filter permit local_pref > 200
 set tunnel_cost 10
 filter permit local_pref > 100
 set tunnel_cost 25

neighbor 10.0.0.2 remote-as 65001
)";

Report admit(std::string_view requester, std::string_view responder) {
  return check_negotiation_admissibility(policy::parse_config(requester),
                                         "req.conf",
                                         policy::parse_config(responder),
                                         "resp.conf");
}

TEST(Admissibility, CompatiblePairIsAdmissible) {
  const Report report = admit(kRequester, kResponder);
  EXPECT_EQ(report.error_count(), 0u) << report.text();
  EXPECT_EQ(count_check(report, "verify.admit.ok"), 1u);
}

TEST(Admissibility, RequesterWithoutNegotiationsIsANote) {
  const Report report = admit("router bgp 65001\n", kResponder);
  EXPECT_EQ(count_check(report, "verify.admit.none"), 1u);
  EXPECT_EQ(report.error_count(), 0u);
}

TEST(Admissibility, UnsatisfiableRequestPattern) {
  const std::string requester =
      "router bgp 65001\n"
      "negotiation impossible\n"
      " match all path [a-z]\n"
      " start negotiation with maximum cost 50\n";
  const Report report = admit(requester, kResponder);
  EXPECT_EQ(count_check(report, "verify.admit.empty-request"), 1u);
  EXPECT_GT(report.error_count(), 0u);
}

TEST(Admissibility, ResponderWithoutAcceptBlock) {
  const Report report = admit(kRequester, "router bgp 65010\n");
  EXPECT_EQ(count_check(report, "verify.admit.no-responder"), 1u);
  EXPECT_GT(report.error_count(), 0u);
}

TEST(Admissibility, RequesterNotOnTheAcceptList) {
  const std::string responder =
      "router bgp 65010\n"
      "accept negotiation from as 65002\n";
  const Report report = admit(kRequester, responder);
  EXPECT_EQ(count_check(report, "verify.admit.rejected-asn"), 1u);
  EXPECT_GT(report.error_count(), 0u);
}

TEST(Admissibility, ZeroTunnelBudgetCanNeverEstablish) {
  const std::string responder =
      "router bgp 65010\n"
      "accept negotiation from as 65001\n"
      " when tunnel_number < 0\n";
  const Report report = admit(kRequester, responder);
  EXPECT_EQ(count_check(report, "verify.admit.no-budget"), 1u);
  EXPECT_GT(report.error_count(), 0u);
}

TEST(Admissibility, OutboundRouteMapDisjointFromRequest) {
  // The responder's outbound filter toward the requester only permits the
  // exact path "999", which shares no AS path with the request ^65010_.
  const std::string responder =
      "router bgp 65010\n"
      "accept negotiation from as 65001\n"
      " when tunnel_number < 100\n"
      "ip as-path access-list 30 permit ^999$\n"
      "route-map sales permit 10\n"
      " match as-path 30\n"
      "neighbor 10.0.0.2 remote-as 65001\n"
      "neighbor 10.0.0.2 route-map sales out\n";
  const Report report = admit(kRequester, responder);
  EXPECT_EQ(count_check(report, "verify.admit.filtered"), 1u);
  EXPECT_GT(report.error_count(), 0u);
}

TEST(Admissibility, OverlappingOutboundRouteMapIsFine) {
  const std::string responder =
      "router bgp 65010\n"
      "accept negotiation from as 65001\n"
      " when tunnel_number < 100\n"
      "ip as-path access-list 30 permit ^65010_\n"
      "route-map sales permit 10\n"
      " match as-path 30\n"
      "neighbor 10.0.0.2 remote-as 65001\n"
      "neighbor 10.0.0.2 route-map sales out\n";
  const Report report = admit(kRequester, responder);
  EXPECT_EQ(count_check(report, "verify.admit.ok"), 1u);
  EXPECT_EQ(report.error_count(), 0u) << report.text();
}

TEST(Admissibility, EveryAlternateCostsMoreThanTheBudget) {
  const std::string requester =
      "router bgp 65001\n"
      "negotiation cheap\n"
      " match all path ^65010_\n"
      " start negotiation with maximum cost 5\n";
  const Report report = admit(requester, kResponder);
  EXPECT_EQ(count_check(report, "verify.admit.too-expensive"), 1u);
  EXPECT_GT(report.error_count(), 0u);
}

}  // namespace
}  // namespace miro::analysis
