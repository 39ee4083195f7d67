// AS-level route representation and the Gao-Rexford policy predicates.
//
// Section 2.2.1: routes are classified by the business relationship of the
// neighbor they were learned from. The conventional policies are
//   export rules  — customer routes go to every neighbor; peer and provider
//                   routes go to customers only; everything goes to siblings;
//   preferences   — customer > peer > provider (Guideline A).
// Sibling links are transparent for classification: a route whose first
// non-sibling link is a peering link is treated as a peer route; a route with
// only sibling links is treated as a customer route.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "topology/as_graph.hpp"

namespace miro::bgp {

using topo::AsGraph;
using topo::AsNumber;
using topo::NodeId;
using topo::Relationship;

/// Resolved class of a route at its owner. Lower rank = more preferred.
/// `Self` is the origin's own (null AS path) route.
enum class RouteClass : std::uint8_t {
  Self = 0,
  Customer = 1,
  Peer = 2,
  Provider = 3,
};

const char* to_string(RouteClass cls);

/// Preference rank; smaller is better (Guideline A ordering).
constexpr int rank(RouteClass cls) { return static_cast<int>(cls); }

/// The conventional local-preference bands quoted in Section 2.2.2
/// (customers 400-500, peers 200-300, providers 50-100).
constexpr int conventional_local_pref(RouteClass cls) {
  switch (cls) {
    case RouteClass::Self: return 1000;
    case RouteClass::Customer: return 400;
    case RouteClass::Peer: return 200;
    case RouteClass::Provider: return 100;
  }
  return 0;
}

/// Class a route takes at a node that learned it over a link whose remote end
/// is `neighbor_rel` to the node, given the class the route had at the
/// neighbor. Sibling links inherit the neighbor's class ("find the first
/// non-sibling link"); a Self route learned from a sibling counts as a
/// customer route.
RouteClass classify(Relationship neighbor_rel, RouteClass class_at_neighbor);

/// Class of a route at its owner read off its AS path (`path[0]` the
/// owner): the first non-sibling link decides, an all-sibling path is a
/// customer route, and a one-AS path is Self. Throws on an empty path or a
/// hop that is not a link of `graph`.
RouteClass path_class(const AsGraph& graph, std::span<const NodeId> path);

/// Conventional export rule: may a node whose best route has class `cls`
/// advertise it to a neighbor that is `neighbor_rel` to the node?
///   - to customers: everything;
///   - to siblings: everything;
///   - to peers and providers: only Self or customer routes.
bool conventional_export_allows(RouteClass cls, Relationship neighbor_rel);

/// One AS-level route: `path[0]` is the owner, `path.back()` the destination
/// AS. The origin's own route is the single-element path {destination}.
struct Route {
  std::vector<NodeId> path;
  RouteClass route_class = RouteClass::Provider;

  NodeId owner() const { return path.front(); }
  NodeId destination() const { return path.back(); }
  NodeId next_hop() const { return path.size() > 1 ? path[1] : path[0]; }
  std::size_t length() const { return path.size() - 1; }  // AS hops

  /// True when `node` appears anywhere on the path (loop check).
  bool traverses(NodeId node) const;

  /// "11537 10466 88"-style rendering using real AS numbers.
  std::string to_string(const AsGraph& graph) const;
};

/// Deterministic total preference order used everywhere in this repository:
/// class rank, then AS-path length, then lowest next-hop AS number, then
/// lexicographic path (final tie-break, total order). Returns true when `a`
/// is strictly preferred over `b`. Both routes must share their owner.
bool prefer(const Route& a, const Route& b, const AsGraph& graph);

}  // namespace miro::bgp
