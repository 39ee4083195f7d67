#include "convergence/model.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace miro::conv {

using bgp::path_class;

const char* to_string(Guideline guideline) {
  switch (guideline) {
    case Guideline::None: return "none";
    case Guideline::StrictOnly: return "strict-only";
    case Guideline::B: return "B";
    case Guideline::C: return "C";
    case Guideline::D: return "D";
    case Guideline::E: return "E";
  }
  return "?";
}

MiroConvergenceModel::MiroConvergenceModel(const AsGraph& graph,
                                           std::vector<NodeId> destinations,
                                           ModelOptions options)
    : graph_(&graph), destinations_(std::move(destinations)),
      options_(std::move(options)) {
  require(!destinations_.empty(), "MiroConvergenceModel: no destinations");
  bool any_d = options_.guideline == Guideline::D && !options_.guideline_of;
  if (options_.guideline_of)
    for (NodeId node = 0; node < graph.node_count(); ++node)
      any_d = any_d || options_.guideline_of(node) == Guideline::D;
  if (any_d)
    require(static_cast<bool>(options_.partial_order),
            "MiroConvergenceModel: Guideline D needs a partial order");
  for (std::size_t i = 0; i < destinations_.size(); ++i)
    destination_index_.emplace(destinations_[i], i);
  const AsGraph* g = graph_;
  if (!options_.prefers) {
    options_.prefers = [g](const bgp::Route& a, const bgp::Route& b) {
      return bgp::prefer(a, b, *g);
    };
  }
  if (!options_.exports) {
    options_.exports = [g](NodeId owner, const bgp::Route& route,
                           NodeId neighbor) {
      return bgp::conventional_export_allows(
          route.route_class, g->relationship(owner, neighbor));
    };
  }
  state_.resize(graph.node_count() * destinations_.size());
  // Each destination originates its own prefix with the null AS path.
  for (NodeId dest : destinations_)
    state_[index_of(dest, dest)].bgp = Path{dest};
}

std::size_t MiroConvergenceModel::index_of(NodeId node,
                                           NodeId destination) const {
  require(node < graph_->node_count(),
          "MiroConvergenceModel: node out of range");
  auto it = destination_index_.find(destination);
  require(it != destination_index_.end(),
          "MiroConvergenceModel: unknown destination");
  return static_cast<std::size_t>(node) * destinations_.size() + it->second;
}

const LayeredRoute& MiroConvergenceModel::route(NodeId node,
                                                NodeId destination) const {
  return state_[index_of(node, destination)];
}

std::optional<Path> MiroConvergenceModel::advertised(NodeId owner,
                                                     NodeId destination,
                                                     NodeId to) const {
  const LayeredRoute& lr = route(owner, destination);
  std::optional<Path> exported;
  switch (guideline_at(owner)) {
    case Guideline::None:
    case Guideline::StrictOnly:
      // Tunnels may freely serve as BGP routes.
      exported = lr.effective();
      break;
    case Guideline::B:
      exported = lr.bgp;  // tunnels are never advertised as BGP paths
      break;
    case Guideline::C:
      // Tunnels advertised as BGP routes only to leaf (stub) ASes.
      exported = graph_->is_stub(to) ? lr.effective() : lr.bgp;
      break;
    case Guideline::D:
    case Guideline::E:
      // A tunnel is exported only when it is in the same class as the
      // advertised BGP route.
      if (lr.tunnel && lr.bgp &&
          path_class(*graph_, *lr.tunnel) == path_class(*graph_, *lr.bgp)) {
        exported = lr.tunnel;
      } else {
        exported = lr.bgp;
      }
      break;
  }
  if (!exported) return std::nullopt;
  // The export hook sees the exported route classed at `owner`.
  const RouteClass cls = path_class(*graph_, *exported);
  bgp::Route route{std::move(*exported), cls};
  if (!options_.exports(owner, route, to)) return std::nullopt;
  return std::move(route.path);
}

std::optional<bgp::Route> MiroConvergenceModel::learned(
    NodeId node, NodeId from, NodeId destination) const {
  std::optional<Path> offered = advertised(from, destination, node);
  if (!offered ||
      std::find(offered->begin(), offered->end(), node) != offered->end())
    return std::nullopt;  // nothing advertised, or loop rejection
  Path path;
  path.reserve(offered->size() + 1);
  path.push_back(node);
  path.insert(path.end(), offered->begin(), offered->end());
  const RouteClass cls = path_class(*graph_, path);
  return bgp::Route{std::move(path), cls};
}

std::optional<Path> MiroConvergenceModel::select_bgp(
    NodeId node, NodeId destination) const {
  if (node == destination) return Path{destination};
  std::optional<bgp::Route> best;
  for (const topo::Neighbor& n : graph_->neighbors(node)) {
    std::optional<bgp::Route> candidate = learned(node, n.node, destination);
    if (candidate && (!best || options_.prefers(*candidate, *best)))
      best = std::move(candidate);
  }
  if (!best) return std::nullopt;
  return std::move(best->path);
}

std::vector<bgp::Route> MiroConvergenceModel::candidates(
    NodeId node, NodeId destination) const {
  std::vector<bgp::Route> out;
  for (const topo::Neighbor& n : graph_->neighbors(node))
    if (std::optional<bgp::Route> candidate =
            learned(node, n.node, destination))
      out.push_back(std::move(*candidate));
  std::sort(out.begin(), out.end(), options_.prefers);
  return out;
}

std::optional<Path> MiroConvergenceModel::select_tunnel(
    NodeId node, NodeId destination) const {
  for (const TunnelSpec& spec : options_.tunnels) {
    if (spec.requester != node || spec.destination != destination) continue;
    const NodeId responder = spec.responder;

    // --- Carrier: how the requester reaches the responder. ---
    std::optional<Path> carrier;
    const bool responder_is_prefix =
        destination_index_.find(responder) != destination_index_.end();
    if (responder_is_prefix) {
      const LayeredRoute& to_responder = route(node, responder);
      switch (guideline_at(node)) {
        case Guideline::None:
        case Guideline::StrictOnly:
        case Guideline::D:
          carrier = to_responder.effective();
          break;
        case Guideline::B:
        case Guideline::C:
          // Tunnels ride only on pure BGP routes.
          carrier = to_responder.bgp;
          break;
        case Guideline::E:
          // The carrier must not contain one of the speaker's own tunnels.
          if (to_responder.tunnel) continue;
          carrier = to_responder.bgp;
          break;
      }
    } else if (graph_->has_edge(node, responder)) {
      carrier = Path{node, responder};
    }
    if (!carrier || carrier->back() != responder) continue;

    // --- Offer: what the responder provides for the destination. ---
    if (responder == destination) continue;
    const LayeredRoute& at_responder = route(responder, destination);
    std::optional<Path> offered;
    switch (guideline_at(responder)) {
      case Guideline::None:
        offered = at_responder.effective();
        break;
      case Guideline::B:
      case Guideline::C:
        offered = at_responder.bgp;  // tunnels built over pure BGP routes
        break;
      case Guideline::StrictOnly:
      case Guideline::D:
      case Guideline::E: {
        // Strict policy: the responder only offers routes in the same class
        // as its advertised BGP route.
        offered = at_responder.effective();
        if (!offered || !at_responder.bgp) break;
        if (path_class(*graph_, *offered) !=
            path_class(*graph_, *at_responder.bgp))
          offered = at_responder.bgp;
        break;
      }
    }
    if (!offered || offered->front() != responder) continue;

    // --- Assemble and validate the tunnel path. ---
    Path path = *carrier;
    path.insert(path.end(), offered->begin() + 1, offered->end());
    // Reject repeated ASes: encapsulation makes loops technically legal
    // (Section 7.1.1), but the gadget analysis and the requesters here never
    // accept them ("paths with too many redundant ASes are unlikely").
    {
      Path sorted = path;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        continue;
    }
    if (spec.required_path && path != *spec.required_path) continue;

    // Guideline D: the per-AS strict partial order gates tunnel preference.
    if (guideline_at(node) == Guideline::D &&
        !options_.partial_order(node, responder, destination))
      continue;

    // Guideline E (Banker's-style local check): refuse a tunnel whose
    // establishment would invalidate one of the speaker's existing tunnels —
    // any own tunnel riding on the route toward `destination`.
    if (guideline_at(node) == Guideline::E) {
      bool would_invalidate = false;
      for (const TunnelSpec& other : options_.tunnels) {
        if (other.requester != node || other.destination == destination)
          continue;
        if (other.responder == destination &&
            route(node, other.destination).tunnel) {
          would_invalidate = true;
          break;
        }
      }
      if (would_invalidate) continue;
    }
    return path;
  }
  return std::nullopt;
}

bool MiroConvergenceModel::activate(NodeId node, NodeId destination) {
  LayeredRoute& current = state_[index_of(node, destination)];
  LayeredRoute next = select(node, destination);
  if (next == current) return false;
  current = std::move(next);
  return true;
}

bool MiroConvergenceModel::activate(NodeId node) {
  bool changed = false;
  for (NodeId dest : destinations_)
    changed = activate(node, dest) || changed;
  return changed;
}

bool MiroConvergenceModel::is_stable() {
  // A state is stable iff activating any speaker is a no-op; probing must
  // not mutate, so compute selections without applying.
  for (NodeId node = 0; node < graph_->node_count(); ++node)
    for (NodeId dest : destinations_)
      if (select(node, dest) != state_[index_of(node, dest)]) return false;
  return true;
}

std::uint64_t MiroConvergenceModel::fingerprint() const {
  std::uint64_t h = kFnvOffset;
  for (const LayeredRoute& lr : state_) {
    h = hash_combine(h, lr.bgp ? lr.bgp->size() + 1 : 0);
    if (lr.bgp)
      for (NodeId n : *lr.bgp) h = hash_combine(h, n);
    h = hash_combine(h, lr.tunnel ? lr.tunnel->size() + 1 : 0);
    if (lr.tunnel)
      for (NodeId n : *lr.tunnel) h = hash_combine(h, n);
  }
  return h;
}

MiroConvergenceModel::RunResult MiroConvergenceModel::run_rounds(
    std::size_t max_rounds, const std::function<bool()>& round) {
  RunResult result;
  std::unordered_set<std::uint64_t> seen;
  seen.insert(fingerprint());
  for (std::size_t i = 0; i < max_rounds; ++i) {
    const bool changed = round();
    result.activations += graph_->node_count();
    if (!changed) {
      result.converged = true;
      return result;
    }
    if (!seen.insert(fingerprint()).second) {
      // The same global state recurred under a deterministic schedule:
      // the system will oscillate forever.
      result.cycle_detected = true;
      return result;
    }
  }
  return result;
}

MiroConvergenceModel::RunResult MiroConvergenceModel::run_round_robin(
    std::size_t max_sweeps) {
  return run_rounds(max_sweeps, [this] {
    bool changed = false;
    for (NodeId node = 0; node < graph_->node_count(); ++node)
      changed = activate(node) || changed;
    return changed;
  });
}

MiroConvergenceModel::RunResult MiroConvergenceModel::run_synchronous(
    std::size_t max_steps) {
  return run_rounds(max_steps, [this] {
    std::vector<LayeredRoute> next(state_.size());
    for (NodeId node = 0; node < graph_->node_count(); ++node)
      for (NodeId dest : destinations_)
        next[index_of(node, dest)] = select(node, dest);
    const bool changed = next != state_;
    state_ = std::move(next);
    return changed;
  });
}

MiroConvergenceModel::RunResult MiroConvergenceModel::run_random(
    Rng& rng, std::size_t max_activations) {
  RunResult result;
  std::size_t quiet = 0;
  while (result.activations < max_activations) {
    const NodeId node =
        static_cast<NodeId>(rng.next_below(graph_->node_count()));
    ++result.activations;
    if (activate(node)) {
      quiet = 0;
    } else if (++quiet >= graph_->node_count() * 3 && is_stable()) {
      result.converged = true;
      return result;
    }
  }
  result.converged = is_stable();
  return result;
}

}  // namespace miro::conv
