#include "core/alternates.hpp"

#include <algorithm>
#include <set>

#include "common/error.hpp"

namespace miro::core {

bool SplicedPath::traverses(NodeId node) const {
  return std::find(as_path.begin(), as_path.end(), node) != as_path.end();
}

const char* to_string(NegotiationScope scope) {
  return scope == NegotiationScope::OneHop ? "1-hop" : "path";
}

std::vector<Route> offered_routes(const StableRouteSolver& solver,
                                  const RoutingTree& tree, NodeId responder,
                                  NodeId arrival_neighbor,
                                  ExportPolicy policy) {
  // The export relationship is evaluated on the link the offered route will
  // actually be used over: the one from the arrival neighbor into the
  // responder.
  const topo::AsGraph& graph = solver.graph();
  topo::Relationship requester_rel = topo::Relationship::Provider;
  if (arrival_neighbor != topo::kInvalidNode &&
      graph.has_edge(responder, arrival_neighbor))
    requester_rel = graph.relationship(responder, arrival_neighbor);
  std::optional<RouteClass> best_class;
  if (tree.reachable(responder)) best_class = tree.route_class(responder);
  return filter_exports(policy, solver.candidates_at(tree, responder),
                        best_class, requester_rel);
}

namespace {

/// Builds the spliced path prefix + offered.path (offered.path[0] is the
/// responder, which equals prefix.back()); rejects loops with the prefix.
std::optional<SplicedPath> splice(const std::vector<NodeId>& prefix,
                                  std::size_t responder_index,
                                  const Route& offered) {
  for (std::size_t i = 0; i + 1 < offered.path.size(); ++i) {
    // No node of the offered suffix (beyond the responder) may re-appear in
    // the prefix; the responder itself is shared.
    NodeId node = offered.path[i + 1];
    if (std::find(prefix.begin(), prefix.end(), node) != prefix.end())
      return std::nullopt;
  }
  SplicedPath spliced;
  spliced.as_path = prefix;
  spliced.as_path.insert(spliced.as_path.end(), offered.path.begin() + 1,
                         offered.path.end());
  spliced.responder = offered.owner();
  spliced.responder_index = responder_index;
  spliced.offered = offered;
  return spliced;
}

}  // namespace

std::vector<SplicedPath> AlternatesEngine::collect(
    const RoutingTree& tree, NodeId source, NegotiationScope scope,
    ExportPolicy policy, const std::vector<bool>* deployed) const {
  const auto& graph = solver_->graph();
  const NodeId destination = tree.destination();
  std::vector<SplicedPath> result;
  if (source == destination) return result;

  std::set<std::vector<NodeId>> seen;
  std::vector<NodeId> default_path = tree.path_of(source);
  if (!default_path.empty()) seen.insert(default_path);

  auto consider = [&](const std::vector<NodeId>& prefix,
                      std::size_t responder_index, const Route& offered) {
    auto spliced = splice(prefix, responder_index, offered);
    if (!spliced) return;
    if (seen.insert(spliced->as_path).second)
      result.push_back(std::move(*spliced));
  };

  auto is_deployed = [&](NodeId node) {
    return deployed == nullptr || (*deployed)[node];
  };

  if (scope == NegotiationScope::OneHop) {
    for (const topo::Neighbor& n : graph.neighbors(source)) {
      if (n.node == destination || !is_deployed(n.node)) continue;
      // The prefix to a 1-hop responder is just the direct link.
      const std::vector<NodeId> prefix{source, n.node};
      for (const Route& offered :
           offered_routes(*solver_, tree, n.node, source, policy))
        consider(prefix, 1, offered);
    }
  } else {
    // Negotiate with every intermediate AS on the default path.
    for (std::size_t i = 1; i + 1 < default_path.size(); ++i) {
      const NodeId responder = default_path[i];
      if (!is_deployed(responder)) continue;
      const std::vector<NodeId> prefix(default_path.begin(),
                                       default_path.begin() + i + 1);
      for (const Route& offered :
           offered_routes(*solver_, tree, responder, default_path[i - 1],
                          policy)) {
        consider(prefix, i, offered);
      }
    }
    // The source's immediate neighbors on the default path are covered; the
    // source itself also sees its own plain-BGP candidates, which are not
    // MIRO alternates and are not counted here.
  }
  return result;
}

std::size_t AlternatesEngine::count(const RoutingTree& tree, NodeId source,
                                    NegotiationScope scope,
                                    ExportPolicy policy,
                                    const std::vector<bool>* deployed) const {
  return collect(tree, source, scope, policy, deployed).size();
}

AlternatesEngine::AvoidResult AlternatesEngine::avoid_as(
    const RoutingTree& tree, NodeId source, NodeId avoid, ExportPolicy policy,
    const std::vector<bool>* deployed) const {
  AvoidResult result;
  const NodeId destination = tree.destination();
  require(source != avoid && destination != avoid,
          "avoid_as: endpoints cannot be the avoided AS");
  if (!tree.reachable(source)) return result;
  const std::vector<NodeId> default_path = tree.path_of(source);
  auto avoid_it = std::find(default_path.begin(), default_path.end(), avoid);
  require(avoid_it != default_path.end(),
          "avoid_as: the avoided AS must lie on the source's default path");
  const std::size_t avoid_index =
      static_cast<std::size_t>(avoid_it - default_path.begin());

  // Plain BGP first: any candidate route at the source that misses the AS.
  for (const Route& candidate : solver_->candidates_at(tree, source)) {
    if (!candidate.traverses(avoid)) {
      result.success = true;
      result.bgp_success = true;
      SplicedPath direct;
      direct.as_path = candidate.path;
      direct.responder = source;
      direct.responder_index = 0;
      direct.offered = candidate;
      result.chosen = std::move(direct);
      return result;
    }
  }

  // Negotiate with the ASes on the default path between the source and the
  // offending AS, closest first.
  for (std::size_t i = 1; i < avoid_index; ++i) {
    const NodeId responder = default_path[i];
    if (deployed != nullptr && !(*deployed)[responder]) continue;
    ++result.ases_contacted;
    const std::vector<Route> offers = offered_routes(
        *solver_, tree, responder, default_path[i - 1], policy);
    result.paths_received += offers.size();
    const std::vector<NodeId> prefix(default_path.begin(),
                                     default_path.begin() + i + 1);
    for (const Route& offered : offers) {
      if (offered.traverses(avoid)) continue;
      auto spliced = splice(prefix, i, offered);
      if (!spliced) continue;
      result.success = true;
      result.chosen = std::move(*spliced);
      return result;
    }
  }
  return result;
}

AlternatesEngine::AvoidResult AlternatesEngine::avoid_as_multihop(
    const RoutingTree& tree, NodeId source, NodeId avoid,
    ExportPolicy policy, const std::vector<bool>* deployed) const {
  AvoidResult result = avoid_as(tree, source, avoid, policy, deployed);
  if (result.success) return result;

  // Second pass: each on-path responder, having nothing acceptable of its
  // own, asks the downstream ASes on its candidate paths to reveal *their*
  // alternates, and relays any that avoid the offending AS.
  const std::vector<NodeId> default_path = tree.path_of(source);
  const std::size_t avoid_index = static_cast<std::size_t>(
      std::find(default_path.begin(), default_path.end(), avoid) -
      default_path.begin());

  auto is_deployed = [&](NodeId node) {
    return deployed == nullptr || (*deployed)[node];
  };

  for (std::size_t i = 1; i < avoid_index; ++i) {
    const NodeId responder = default_path[i];
    if (!is_deployed(responder)) continue;
    const std::vector<NodeId> prefix(default_path.begin(),
                                     default_path.begin() + i + 1);
    std::vector<NodeId> asked;  // each downstream is contacted once
    for (const Route& via : offered_routes(*solver_, tree, responder,
                                           default_path[i - 1], policy)) {
      // The first hop of this candidate is a downstream AS the responder
      // can ask — useful only if that hop is itself clean.
      if (via.path.size() < 2) continue;
      const NodeId downstream = via.path[1];
      if (downstream == avoid || !is_deployed(downstream)) continue;
      if (std::find(asked.begin(), asked.end(), downstream) != asked.end())
        continue;
      asked.push_back(downstream);
      ++result.ases_contacted;
      const std::vector<Route> relayed =
          offered_routes(*solver_, tree, downstream, responder, policy);
      result.paths_received += relayed.size();
      for (const Route& offered : relayed) {
        if (offered.traverses(avoid)) continue;
        // End-to-end: default prefix + responder->downstream link +
        // downstream's alternate.
        std::vector<NodeId> extended_prefix = prefix;
        extended_prefix.push_back(downstream);
        if (std::find(prefix.begin(), prefix.end(), downstream) !=
            prefix.end())
          continue;  // downstream already on the prefix: loop
        auto spliced = splice(extended_prefix, i + 1, offered);
        if (!spliced) continue;
        result.success = true;
        result.used_multihop = true;
        result.chosen = std::move(*spliced);
        return result;
      }
    }
  }
  return result;
}

}  // namespace miro::core
