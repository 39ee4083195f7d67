#include "bgp/route_solver.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"
#include "obs/profile.hpp"

namespace miro::bgp {

RoutingTree::RoutingTree(const AsGraph& graph, NodeId destination)
    : graph_(&graph), destination_(destination),
      entries_(graph.node_count()) {}

std::vector<NodeId> RoutingTree::path_of(NodeId node) const {
  std::vector<NodeId> path;
  if (!entries_[node].reachable) return path;
  NodeId current = node;
  path.push_back(current);
  while (current != destination_) {
    current = entries_[current].next_hop;
    path.push_back(current);
    require(path.size() <= entries_.size(), "RoutingTree: next-hop loop");
  }
  return path;
}

Route RoutingTree::route_of(NodeId node) const {
  require(entries_[node].reachable, "RoutingTree::route_of: unreachable node");
  return Route{path_of(node), entries_[node].cls};
}

NodeId RoutingTree::ingress_neighbor(NodeId node) const {
  if (!entries_[node].reachable || node == destination_)
    return topo::kInvalidNode;
  NodeId current = node;
  std::size_t steps = 0;
  while (entries_[current].next_hop != destination_) {
    current = entries_[current].next_hop;
    require(++steps <= entries_.size(), "RoutingTree: next-hop loop");
  }
  return current;
}

std::size_t RoutingTree::reachable_count() const {
  std::size_t count = 0;
  for (const Entry& e : entries_)
    if (e.reachable) ++count;
  return count;
}

namespace {

/// Order-free key of the undirected link a-b.
std::uint64_t link_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// One full AS_SEQUENCE segment: RFC 4271 gives its length one octet.
constexpr std::size_t kMaxSegmentPrepend = 255;

/// One route offered to `node`: `next_hop` exported its finalized route.
struct Offer {
  NodeId node;
  NodeId next_hop;
};

/// classify() never yields Self, so Self marks an export the rule withholds.
constexpr RouteClass kWithheld = RouteClass::Self;

/// table[cls][rel]: the class a route of class `cls` takes at a neighbor
/// that is `rel` to the route's owner, or kWithheld where the conventional
/// export rule keeps the route back. One lookup per half-edge stands in for
/// the two out-of-line policy calls it is built from.
using ExportTable = std::array<std::array<RouteClass, 4>, 4>;

ExportTable export_table() {
  ExportTable table{};
  for (std::size_t c = 0; c < table.size(); ++c) {
    for (std::size_t r = 0; r < table[c].size(); ++r) {
      const auto cls = static_cast<RouteClass>(c);
      const auto rel = static_cast<Relationship>(r);
      // At the receiving side, the owner is reverse(rel) to the neighbor.
      table[c][r] = conventional_export_allows(cls, rel)
                        ? classify(topo::reverse(rel), cls)
                        : kWithheld;
    }
  }
  return table;
}

}  // namespace

RoutingTree StableRouteSolver::run(NodeId destination, const PinnedRoute* pin,
                                   const OriginPrepend* prepend,
                                   NodeId exclude,
                                   std::span<const std::uint64_t> down) const {
  obs::ScopedSpan span(obs::profile(), "bgp/solve_tree", "bgp");
  const AsGraph& graph = *graph_;
  require(destination < graph.node_count(),
          "StableRouteSolver: destination out of range");
  RoutingTree tree(graph, destination);
  std::vector<RoutingTree::Entry>& entries = tree.entries_;
  const ExportTable next_class = export_table();

  // buckets[rank - 1][length] holds the offers of one (class, length) key.
  // An export never improves the class and adds exactly one hop (plus the
  // origin's padding), so every offer of a key is in its bucket by the time
  // the buckets are processed in key order.
  std::array<std::vector<std::vector<Offer>>, 3> buckets;

  // Offers `node`'s finalized route to every neighbor the conventional
  // export policy permits, classified by the link it arrives on. Offers to
  // finalized nodes are dropped when their bucket is processed.
  auto export_route = [&](NodeId node) {
    const std::uint32_t length = entries[node].length + 1;
    const auto& row = next_class[static_cast<std::size_t>(entries[node].cls)];
    for (const topo::Neighbor& n : graph.neighbors(node)) {
      // n.rel: what the neighbor is *to node* — exactly the argument the
      // export rule takes.
      const RouteClass cls = row[static_cast<std::size_t>(n.rel)];
      if (cls == kWithheld) continue;
      if (n.node == exclude) continue;  // the excised AS never selects
      if (pin != nullptr && n.node == pin->node &&
          node != pin->forced_next_hop)
        continue;  // the pinned AS may only use its negotiated next hop
      if (!down.empty() && std::binary_search(down.begin(), down.end(),
                                              link_key(node, n.node)))
        continue;  // a failed link carries no advertisement
      // Origin prepending pads the advertised path toward one neighbor.
      const std::uint32_t padding =
          (prepend != nullptr && node == destination &&
           n.node == prepend->neighbor)
              ? prepend->extra
              : 0;
      std::vector<std::vector<Offer>>& by_length = buckets[rank(cls) - 1];
      if (by_length.size() <= length + padding)
        by_length.resize(length + padding + 1);
      by_length[length + padding].push_back({n.node, node});
    }
  };

  entries[destination] = {destination, 0, RouteClass::Self, true};
  export_route(destination);
  for (const RouteClass cls :
       {RouteClass::Customer, RouteClass::Peer, RouteClass::Provider}) {
    std::vector<std::vector<Offer>>& by_length = buckets[rank(cls) - 1];
    for (std::uint32_t length = 1; length < by_length.size(); ++length) {
      const std::vector<Offer> offers = std::move(by_length[length]);
      for (const Offer& offer : offers) {
        RoutingTree::Entry& entry = entries[offer.node];
        if (!entry.reachable) {
          // A node's first offer of its smallest key fixes its class and
          // length, and an export carries nothing else, so the node
          // exports before the rest of the bucket is read.
          entry = {offer.next_hop, length, cls, true};
          export_route(offer.node);
        } else if (entry.cls == cls && entry.length == length &&
                   graph.as_number(offer.next_hop) <
                       graph.as_number(entry.next_hop)) {
          // A tie on (class, length): the lowest next-hop AS number wins,
          // which makes the stable state deterministic.
          entry.next_hop = offer.next_hop;
        }
      }
    }
  }
  return tree;
}

RoutingTree StableRouteSolver::solve(NodeId destination) const {
  return run(destination, nullptr, nullptr);
}

RoutingTree StableRouteSolver::solve_pinned(NodeId destination,
                                            const PinnedRoute& pin) const {
  require(pin.node != topo::kInvalidNode &&
              pin.forced_next_hop != topo::kInvalidNode,
          "solve_pinned: invalid pin");
  require(pin.node != destination, "solve_pinned: cannot pin the destination");
  require(graph_->has_edge(pin.node, pin.forced_next_hop),
          "solve_pinned: forced next hop is not a neighbor");
  return run(destination, &pin, nullptr);
}

RoutingTree StableRouteSolver::solve_prepended(
    NodeId destination, const OriginPrepend& prepend) const {
  require(graph_->has_edge(destination, prepend.neighbor),
          "solve_prepended: prepend neighbor is not adjacent");
  require(prepend.extra <= std::max<std::size_t>(graph_->node_count(),
                                                 kMaxSegmentPrepend),
          "solve_prepended: prepend longer than both 255 and the AS count");
  return run(destination, nullptr, &prepend);
}

RoutingTree StableRouteSolver::solve_avoiding(NodeId destination,
                                              NodeId avoid) const {
  require(avoid < graph_->node_count(),
          "solve_avoiding: avoided AS out of range");
  require(avoid != destination,
          "solve_avoiding: cannot avoid the destination");
  return run(destination, nullptr, nullptr, avoid);
}

RoutingTree StableRouteSolver::solve_without_links(
    NodeId destination,
    const std::vector<std::pair<NodeId, NodeId>>& down) const {
  std::vector<std::uint64_t> keys;
  keys.reserve(down.size());
  for (const auto& [a, b] : down) {
    require(graph_->has_edge(a, b), "solve_without_links: not a link");
    keys.push_back(link_key(a, b));
  }
  std::sort(keys.begin(), keys.end());
  return run(destination, nullptr, nullptr, topo::kInvalidNode, keys);
}

std::vector<Route> StableRouteSolver::candidates_at(const RoutingTree& tree,
                                                    NodeId node) const {
  const AsGraph& graph = *graph_;
  std::vector<Route> candidates;
  if (node == tree.destination()) return candidates;
  for (const topo::Neighbor& n : graph.neighbors(node)) {
    if (!tree.reachable(n.node)) continue;
    const RouteClass neighbor_cls = tree.route_class(n.node);
    // The neighbor's export policy: `node` is reverse(n.rel) to the neighbor.
    if (!conventional_export_allows(neighbor_cls, topo::reverse(n.rel)))
      continue;
    std::vector<NodeId> neighbor_path = tree.path_of(n.node);
    if (std::find(neighbor_path.begin(), neighbor_path.end(), node) !=
        neighbor_path.end())
      continue;  // implicit import policy: drop looping paths
    Route route;
    route.path.reserve(neighbor_path.size() + 1);
    route.path.push_back(node);
    route.path.insert(route.path.end(), neighbor_path.begin(),
                      neighbor_path.end());
    route.route_class = classify(n.rel, neighbor_cls);
    candidates.push_back(std::move(route));
  }
  // Deterministic order: best first.
  std::sort(candidates.begin(), candidates.end(),
            [&graph](const Route& a, const Route& b) {
              return prefer(a, b, graph);
            });
  return candidates;
}

}  // namespace miro::bgp
