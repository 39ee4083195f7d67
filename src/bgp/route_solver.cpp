#include "bgp/route_solver.hpp"

#include <algorithm>
#include <queue>

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

/// Priority-queue item; ordered so that the globally most-preferred
/// tentative route pops first. For equal (class, length) the lowest
/// next-hop AS number wins, making the stable state deterministic.
struct QueueItem {
  int class_rank;
  std::uint32_t length;
  AsNumber next_hop_asn;
  NodeId node;
  NodeId next_hop;
  RouteClass cls;

  bool operator>(const QueueItem& other) const {
    if (class_rank != other.class_rank) return class_rank > other.class_rank;
    if (length != other.length) return length > other.length;
    if (next_hop_asn != other.next_hop_asn)
      return next_hop_asn > other.next_hop_asn;
    return node > other.node;  // arbitrary stable tie-break
  }
};

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

  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>
      queue;
  queue.push({rank(RouteClass::Self), 0, graph.as_number(destination),
              destination, destination, RouteClass::Self});

  while (!queue.empty()) {
    const QueueItem item = queue.top();
    queue.pop();
    if (tree.entries_[item.node].reachable) continue;  // already finalized
    if (pin != nullptr && item.node == pin->node &&
        item.next_hop != pin->forced_next_hop) {
      continue;  // the pinned AS may only use its negotiated next hop
    }
    RoutingTree::Entry& entry = tree.entries_[item.node];
    entry.reachable = true;
    entry.next_hop = item.next_hop;
    entry.length = item.length;
    entry.cls = item.cls;

    // Export the newly finalized route to every neighbor the conventional
    // policy permits; the neighbor classifies it by the link it arrives on.
    for (const topo::Neighbor& n : graph.neighbors(item.node)) {
      if (n.node == exclude) continue;  // the excised AS never selects
      if (!down.empty() && std::binary_search(down.begin(), down.end(),
                                              link_key(item.node, n.node)))
        continue;  // a failed link carries no advertisement
      if (tree.entries_[n.node].reachable) continue;
      // n.rel: what the neighbor is *to item.node* — exactly the argument
      // the export rule takes.
      if (!conventional_export_allows(item.cls, n.rel)) continue;
      // At the receiving side, item.node is reverse(n.rel) to the neighbor.
      const RouteClass cls_at_neighbor =
          classify(topo::reverse(n.rel), item.cls);
      // Origin prepending pads the advertised path toward one neighbor.
      const std::uint32_t padding =
          (prepend != nullptr && item.node == destination &&
           n.node == prepend->neighbor)
              ? prepend->extra
              : 0;
      queue.push({rank(cls_at_neighbor), item.length + 1 + padding,
                  graph.as_number(item.node), n.node, item.node,
                  cls_at_neighbor});
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
  require(graph_->has_edge(pin.node, pin.forced_next_hop),
          "solve_pinned: forced next hop is not a neighbor");
  return run(destination, &pin, nullptr);
}

RoutingTree StableRouteSolver::solve_prepended(
    NodeId destination, const OriginPrepend& prepend) const {
  require(graph_->has_edge(destination, prepend.neighbor),
          "solve_prepended: prepend neighbor is not adjacent");
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
