#include "bgp/route.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace miro::bgp {

const char* to_string(RouteClass cls) {
  switch (cls) {
    case RouteClass::Self: return "self";
    case RouteClass::Customer: return "customer";
    case RouteClass::Peer: return "peer";
    case RouteClass::Provider: return "provider";
  }
  return "?";
}

RouteClass classify(Relationship neighbor_rel, RouteClass class_at_neighbor) {
  switch (neighbor_rel) {
    case Relationship::Customer:
      return RouteClass::Customer;
    case Relationship::Peer:
      return RouteClass::Peer;
    case Relationship::Provider:
      return RouteClass::Provider;
    case Relationship::Sibling:
      // Transparent: keep looking past the sibling link. A chain of only
      // sibling links back to the origin classifies as a customer route
      // (Section 2.2.1's approximation).
      return class_at_neighbor == RouteClass::Self ? RouteClass::Customer
                                                   : class_at_neighbor;
  }
  return RouteClass::Provider;
}

RouteClass path_class(const AsGraph& graph, std::span<const NodeId> path) {
  require(!path.empty(), "path_class: empty path");
  if (path.size() == 1) return RouteClass::Self;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Relationship rel = graph.relationship(path[i], path[i + 1]);
    if (rel != Relationship::Sibling) return classify(rel, RouteClass::Self);
  }
  return RouteClass::Customer;
}

bool conventional_export_allows(RouteClass cls, Relationship neighbor_rel) {
  switch (neighbor_rel) {
    case Relationship::Customer:
    case Relationship::Sibling:
      return true;
    case Relationship::Peer:
    case Relationship::Provider:
      return cls == RouteClass::Self || cls == RouteClass::Customer;
  }
  return false;
}

bool Route::traverses(NodeId node) const {
  return std::find(path.begin(), path.end(), node) != path.end();
}

std::string Route::to_string(const AsGraph& graph) const {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(graph.as_number(path[i]));
  }
  return out;
}

bool prefer(const Route& a, const Route& b, const AsGraph& graph) {
  require(!a.path.empty() && !b.path.empty(), "prefer: empty route");
  require(a.owner() == b.owner(), "prefer: routes have different owners");
  if (rank(a.route_class) != rank(b.route_class))
    return rank(a.route_class) < rank(b.route_class);
  if (a.length() != b.length()) return a.length() < b.length();
  const AsNumber next_a = graph.as_number(a.next_hop());
  const AsNumber next_b = graph.as_number(b.next_hop());
  if (next_a != next_b) return next_a < next_b;
  return a.path < b.path;  // total order fallback
}

}  // namespace miro::bgp
