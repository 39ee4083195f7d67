#include "analysis/convergence_lint.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>

#include "bgp/route.hpp"

namespace miro::analysis {

namespace {

using bgp::path_class;
using conv::Guideline;
using conv::ModelOptions;
using conv::Path;
using conv::TunnelSpec;
using topo::AsGraph;
using topo::NodeId;
using topo::Relationship;

Guideline guideline_at(const ModelOptions& options, NodeId node) {
  return options.guideline_of ? options.guideline_of(node) : options.guideline;
}

}  // namespace

// ---------------------------------------------------------- Guideline A

std::optional<std::vector<NodeId>> find_provider_cycle(const AsGraph& graph) {
  enum : char { kWhite, kGrey, kBlack };
  std::vector<char> color(graph.node_count(), kWhite);
  std::vector<NodeId> parent(graph.node_count(), topo::kInvalidNode);
  for (NodeId root = 0; root < graph.node_count(); ++root) {
    if (color[root] != kWhite) continue;
    // Iterative DFS: (node, next neighbor index to try).
    std::vector<std::pair<NodeId, std::size_t>> stack{{root, 0}};
    color[root] = kGrey;
    while (!stack.empty()) {
      auto& [node, next] = stack.back();
      const auto providers = graph.neighbors_with(node, Relationship::Provider);
      if (next >= providers.size()) {
        color[node] = kBlack;
        stack.pop_back();
        continue;
      }
      const NodeId provider = providers[next++];
      if (color[provider] == kGrey) {
        // Unwind the grey chain from `node` back to `provider`.
        std::vector<NodeId> cycle{provider};
        for (NodeId walk = node; walk != provider; walk = parent[walk])
          cycle.push_back(walk);
        cycle.push_back(provider);
        std::reverse(cycle.begin() + 1, cycle.end() - 1);
        return cycle;
      }
      if (color[provider] == kWhite) {
        color[provider] = kGrey;
        parent[provider] = node;
        stack.push_back({provider, 0});
      }
    }
  }
  return std::nullopt;
}

namespace {

/// Returns the index of the first step that forms a valley, or nullopt when
/// the path is valley-free (up* flat? down*, siblings transparent).
std::optional<std::size_t> find_valley(const AsGraph& graph, const Path& path) {
  // 0 = still climbing, 1 = crossed the (single) peering link, 2 = descending.
  int phase = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    switch (graph.relationship(path[i], path[i + 1])) {
      case Relationship::Sibling: break;
      case Relationship::Provider:  // going up
        if (phase != 0) return i;
        break;
      case Relationship::Peer:  // the plateau
        if (phase != 0) return i;
        phase = 1;
        break;
      case Relationship::Customer:  // going down
        phase = 2;
        break;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------- Guideline D

void check_partial_order(Report& report, const AsGraph& graph,
                         const ModelOptions& options, NodeId node,
                         std::string_view label) {
  const auto& order = options.partial_order;
  const std::size_t n = graph.node_count();
  for (NodeId v = 0; v < n; ++v) {
    if (order(node, v, v)) {
      report
          .add(Severity::Error, "conv.guideline-d.order-not-strict",
               "Guideline D order at " + as_str(graph, node) +
                   " is not irreflexive: " + as_str(graph, v) + " ≺ " +
                   as_str(graph, v))
          .at(label)
          .fix("a strict partial order must never relate an element to "
               "itself");
      return;  // one witness per AS is enough
    }
  }
  // Acyclicity: edge v -> d whenever v ≺ d. A cycle in ≺ cannot be extended
  // to any strict partial order; an acyclic relation always can.
  enum : char { kWhite, kGrey, kBlack };
  std::vector<char> color(n, kWhite);
  std::vector<NodeId> parent(n, topo::kInvalidNode);
  for (NodeId root = 0; root < n; ++root) {
    if (color[root] != kWhite) continue;
    std::vector<std::pair<NodeId, NodeId>> stack{{root, 0}};
    color[root] = kGrey;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      while (next < n && (next == v || !order(node, v, next))) ++next;
      if (next >= n) {
        color[v] = kBlack;
        stack.pop_back();
        continue;
      }
      const NodeId d = next++;
      if (color[d] == kGrey) {
        std::vector<NodeId> cycle{d};
        for (NodeId walk = v; walk != d; walk = parent[walk])
          cycle.push_back(walk);
        cycle.push_back(d);
        std::reverse(cycle.begin() + 1, cycle.end() - 1);
        std::string witness;
        for (std::size_t i = 0; i < cycle.size(); ++i) {
          if (i > 0) witness += " ≺ ";
          witness += as_str(graph, cycle[i]);
        }
        report
            .add(Severity::Error, "conv.guideline-d.order-not-strict",
                 "Guideline D order at " + as_str(graph, node) +
                     " contains a cycle, so it is not a strict partial order")
            .at(label)
            .fix("break the cycle; Guideline D's convergence proof needs a "
                 "genuine strict partial order")
            .note("witness: " + witness);
        return;
      }
      if (color[d] == kWhite) {
        color[d] = kGrey;
        parent[d] = v;
        stack.push_back({d, 0});
      }
    }
  }
}

// ------------------------------------------------------- dispute wheel

struct TunnelInfo {
  const TunnelSpec* spec = nullptr;
  std::size_t index = 0;
  bool valid = true;     ///< spec is well-formed over this graph
  bool eligible = true;  ///< passes its requester's guideline gates
  std::optional<Path> path;  ///< representative established path
};

/// Index of the first occurrence of `node` in `path`, or npos.
std::size_t find_on_path(const Path& path, NodeId node) {
  const auto it = std::find(path.begin(), path.end(), node);
  return it == path.end() ? std::string::npos
                          : static_cast<std::size_t>(it - path.begin());
}

bool has_repeated_as(const Path& path) {
  Path sorted = path;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

/// The baseline (tunnel-free) BGP routes: Guideline A's unique stable
/// solution, computed by running the model without any tunnels.
class Baseline {
 public:
  Baseline(const AsGraph& graph, const std::vector<NodeId>& destinations)
      : model_(graph, destinations, ModelOptions{}),
        destinations_(&destinations) {
    converged_ = model_.run_round_robin(1024).converged;
  }

  bool converged() const { return converged_; }
  bool is_destination(NodeId node) const {
    return std::find(destinations_->begin(), destinations_->end(), node) !=
           destinations_->end();
  }
  const std::optional<Path>& route(NodeId node, NodeId destination) const {
    return model_.route(node, destination).bgp;
  }

 private:
  conv::MiroConvergenceModel model_;
  const std::vector<NodeId>* destinations_;
  bool converged_ = false;
};

/// Would establishing `up` invalidate `t`? This is the dispute edge of the
/// static wheel analysis; see DESIGN.md §9 for the derivation.
bool invalidates(const AsGraph& graph, const ModelOptions& options,
                 const Baseline& baseline, const TunnelInfo& t,
                 const TunnelInfo& up) {
  if (t.index == up.index) return false;
  const TunnelSpec& spec = *t.spec;
  const TunnelSpec& other = *up.spec;

  // --- Offer conflict: `up` changes what t's responder offers. ---
  if (other.requester == spec.responder &&
      other.destination == spec.destination && up.path &&
      up.path->front() == spec.responder) {
    const NodeId r = spec.responder;
    std::optional<Path> offered;
    switch (guideline_at(options, r)) {
      case Guideline::None:
        offered = *up.path;
        break;
      case Guideline::StrictOnly:
      case Guideline::D:
      case Guideline::E: {
        // Strict policy: the tunnel is offered only in its BGP route's
        // class; otherwise the (unchanged) BGP route is.
        const std::optional<Path>& bgp =
            baseline.is_destination(spec.destination)
                ? baseline.route(r, spec.destination)
                : std::optional<Path>{};
        if (!bgp || path_class(graph, *up.path) == path_class(graph, *bgp)) {
          offered = *up.path;
        } else {
          offered = *bgp;
        }
        break;
      }
      case Guideline::B:
        return false;  // tunnels are never offered onward
      case Guideline::C:
        // Tunnel routes propagate only to leaf ASes, which never re-export.
        if (!graph.is_stub(spec.requester)) return false;
        offered = *up.path;
        break;
    }
    if (!offered) return false;
    if (spec.required_path) {
      const std::size_t at = find_on_path(*spec.required_path, r);
      if (at != std::string::npos) {
        const Path needed(spec.required_path->begin() +
                              static_cast<std::ptrdiff_t>(at),
                          spec.required_path->end());
        if (*offered != needed) return true;
      }
    } else if (t.path) {
      // No pinned path: the tunnel survives unless the new offer loops
      // through the requester's own carrier.
      const std::size_t at = find_on_path(*t.path, r);
      if (at != std::string::npos) {
        Path assembled(t.path->begin(),
                       t.path->begin() + static_cast<std::ptrdiff_t>(at));
        assembled.insert(assembled.end(), offered->begin(), offered->end());
        if (has_repeated_as(assembled)) return true;
      }
    }
  }

  // --- Carrier conflict: `up` changes how t's requester reaches its
  // responder (only possible when the responder is itself a prefix). ---
  if (other.requester == spec.requester &&
      other.destination == spec.responder &&
      baseline.is_destination(spec.responder) && up.path) {
    switch (guideline_at(options, spec.requester)) {
      case Guideline::None:
      case Guideline::StrictOnly:
      case Guideline::D:
        break;  // the carrier is the effective route: analysis below
      case Guideline::B:
      case Guideline::C:
        return false;  // tunnels ride pure BGP routes only
      case Guideline::E:
        // E refuses to ride its own tunnel and refuses establishments that
        // would invalidate an existing one: the speaker's tunnels are
        // serialised locally and cannot chase each other (§7.3.3).
        return false;
    }
    if (spec.required_path) {
      const std::size_t at = find_on_path(*spec.required_path, spec.responder);
      if (at != std::string::npos) {
        const Path needed(spec.required_path->begin(),
                          spec.required_path->begin() +
                              static_cast<std::ptrdiff_t>(at) + 1);
        if (*up.path != needed) return true;
      }
    } else if (t.path) {
      const std::size_t at = find_on_path(*t.path, spec.responder);
      if (at != std::string::npos) {
        Path assembled = *up.path;
        assembled.insert(assembled.end(),
                         t.path->begin() + static_cast<std::ptrdiff_t>(at) + 1,
                         t.path->end());
        if (has_repeated_as(assembled)) return true;
      }
    }
  }
  return false;
}

/// Finds a directed cycle among the tunnels under `invalidates`; returns the
/// tunnel indices around the cycle.
std::optional<std::vector<std::size_t>> find_wheel(
    const std::vector<TunnelInfo>& tunnels,
    const std::vector<std::vector<std::size_t>>& edges) {
  enum : char { kWhite, kGrey, kBlack };
  std::vector<char> color(tunnels.size(), kWhite);
  std::vector<std::size_t> parent(tunnels.size(), 0);
  for (std::size_t root = 0; root < tunnels.size(); ++root) {
    if (color[root] != kWhite) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
    color[root] = kGrey;
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      if (next >= edges[v].size()) {
        color[v] = kBlack;
        stack.pop_back();
        continue;
      }
      const std::size_t w = edges[v][next++];
      if (color[w] == kGrey) {
        std::vector<std::size_t> cycle{w};
        for (std::size_t walk = v; walk != w; walk = parent[walk])
          cycle.push_back(walk);
        std::reverse(cycle.begin() + 1, cycle.end());
        return cycle;
      }
      if (color[w] == kWhite) {
        color[w] = kGrey;
        parent[w] = v;
        stack.push_back({w, 0});
      }
    }
  }
  return std::nullopt;
}

}  // namespace

Report lint_topology(const AsGraph& graph, std::string_view label) {
  Report report;
  if (const auto cycle = find_provider_cycle(graph)) {
    std::string witness;
    for (std::size_t i = 0; i < cycle->size(); ++i) {
      if (i > 0) witness += " -> ";
      witness += as_str(graph, (*cycle)[i]);
    }
    report
        .add(Severity::Error, "conv.guideline-a.provider-cycle",
             "customer-provider relation contains a cycle: an AS is its own "
             "indirect provider, violating Gao-Rexford Guideline A")
        .at(label)
        .fix("break the cycle (each arrow reads 'is a customer of')")
        .note("witness: " + witness);
  }
  return report;
}

Report lint_system(const AsGraph& graph,
                   const std::vector<NodeId>& destinations,
                   const ModelOptions& options, std::string_view label) {
  Report report = lint_topology(graph, label);
  const bool provider_cycle = !report.empty();

  // --- Guideline assignment survey. ---
  bool any_d = false;
  bool any_unguarded_tunnel = false;
  std::unordered_set<NodeId> d_nodes;
  for (NodeId node = 0; node < graph.node_count(); ++node) {
    if (guideline_at(options, node) == Guideline::D) {
      any_d = true;
      d_nodes.insert(node);
    }
  }
  if (any_d && !options.partial_order) {
    report
        .add(Severity::Error, "conv.guideline-d.order-missing",
             "Guideline D is assigned but no ≺ partial order is declared")
        .at(label)
        .fix("provide ModelOptions::partial_order");
  } else if (any_d) {
    for (NodeId node : d_nodes)
      check_partial_order(report, graph, options, node, label);
  }

  // --- Destination sanity (everything downstream indexes by them). ---
  bool destinations_ok = true;
  for (NodeId dest : destinations) {
    if (dest >= graph.node_count()) {
      destinations_ok = false;
      report
          .add(Severity::Error, "conv.system.bad-destination",
               "destination node id " + std::to_string(dest) +
                   " is not in the topology")
          .at(label);
    }
  }

  // --- Tunnel spec validation. ---
  std::vector<TunnelInfo> tunnels;
  tunnels.reserve(options.tunnels.size());
  for (std::size_t i = 0; i < options.tunnels.size(); ++i) {
    const TunnelSpec& spec = options.tunnels[i];
    TunnelInfo info;
    info.spec = &spec;
    info.index = i;
    const auto bad = [&](const std::string& why) {
      report
          .add(Severity::Error, "conv.tunnel.bad-spec",
               "tunnel specification #" + std::to_string(i) + ": " + why)
          .at(label);
      info.valid = false;
    };
    if (spec.requester >= graph.node_count() ||
        spec.responder >= graph.node_count() ||
        spec.destination >= graph.node_count()) {
      bad("requester, responder, or destination is not in the topology");
    } else if (spec.required_path) {
      const Path& path = *spec.required_path;
      if (path.size() < 2 || path.front() != spec.requester ||
          path.back() != spec.destination) {
        bad("required path must run from the requester to the destination");
      } else if (find_on_path(path, spec.responder) == std::string::npos) {
        bad("required path does not visit the responder");
      } else {
        for (std::size_t j = 0; j + 1 < path.size(); ++j) {
          if (!graph.has_edge(path[j], path[j + 1])) {
            bad("required path uses the non-existent link " +
                as_str(graph, path[j]) + " -- " + as_str(graph, path[j + 1]));
            break;
          }
        }
      }
    }
    tunnels.push_back(std::move(info));
  }

  // --- Per-guideline static checks over the tunnels. ---
  for (const TunnelInfo& info : tunnels) {
    if (!info.valid) continue;
    const TunnelSpec& spec = *info.spec;
    const Guideline g = guideline_at(options, spec.requester);
    if (g == Guideline::None || g == Guideline::StrictOnly)
      any_unguarded_tunnel = true;
    // Valley audit: None/strict ASes re-advertise tunnel routes as BGP
    // routes (and C forwards them to stubs), but the route class only
    // reflects the first link, so a valley inside the tunnel path escapes
    // the conventional export rule.
    const auto has_stub_neighbor = [&] {
      for (const topo::Neighbor& n : graph.neighbors(spec.requester))
        if (graph.is_stub(n.node)) return true;
      return false;
    };
    if (spec.required_path &&
        (g == Guideline::None || g == Guideline::StrictOnly ||
         (g == Guideline::C && has_stub_neighbor()))) {
      if (const auto step = find_valley(graph, *spec.required_path)) {
        const Path& path = *spec.required_path;
        report
            .add(Severity::Warning, "conv.guideline-a.valley-export",
                 "tunnel path " + path_str(graph, path) + " of " +
                     as_str(graph, spec.requester) +
                     " contains a valley at " + as_str(graph, path[*step]) +
                     " and may be re-advertised as a BGP route")
            .at(label)
            .fix("assign Guideline B-E to " + as_str(graph, spec.requester) +
                 " so the tunnel stays out of the BGP layer");
      }
    }
    // Guideline E: a tunnel toward a prefix that is another of the
    // speaker's responders serialises with that tunnel (no-tunnel-over-
    // tunnel); they can never be up simultaneously.
    if (g == Guideline::E) {
      for (const TunnelInfo& other : tunnels) {
        if (!other.valid || other.index == info.index) continue;
        if (other.spec->requester == spec.requester &&
            other.spec->destination == spec.responder) {
          report
              .add(Severity::Note, "conv.guideline-e.serialised",
                   as_str(graph, spec.requester) + "'s tunnel toward " +
                       as_str(graph, spec.destination) + " via " +
                       as_str(graph, spec.responder) +
                       " cannot be up while its tunnel toward " +
                       as_str(graph, other.spec->destination) +
                       " is established (Guideline E forbids riding your "
                       "own tunnel)")
              .at(label);
        }
      }
    }
  }

  // --- Dispute-wheel detection. ---
  if (!provider_cycle && destinations_ok && !destinations.empty() &&
      !tunnels.empty()) {
    const Baseline baseline(graph, destinations);
    if (!baseline.converged()) {
      report
          .add(Severity::Error, "conv.baseline-diverged",
               "the tunnel-free BGP layer itself failed to converge")
          .at(label);
    } else {
      // Representative established path per tunnel, and D's gate.
      for (TunnelInfo& info : tunnels) {
        if (!info.valid) continue;
        const TunnelSpec& spec = *info.spec;
        if (guideline_at(options, spec.requester) == Guideline::D) {
          info.eligible =
              options.partial_order &&
              options.partial_order(spec.requester, spec.responder,
                                    spec.destination);
        }
        if (spec.required_path) {
          info.path = *spec.required_path;
        } else {
          std::optional<Path> carrier;
          if (baseline.is_destination(spec.responder)) {
            carrier = baseline.route(spec.requester, spec.responder);
          } else if (graph.has_edge(spec.requester, spec.responder)) {
            carrier = Path{spec.requester, spec.responder};
          }
          const std::optional<Path>& offer =
              baseline.is_destination(spec.destination)
                  ? baseline.route(spec.responder, spec.destination)
                  : std::optional<Path>{};
          if (carrier && offer && !offer->empty()) {
            info.path = *carrier;
            info.path->insert(info.path->end(), offer->begin() + 1,
                              offer->end());
          }
        }
      }
      std::vector<std::vector<std::size_t>> edges(tunnels.size());
      for (const TunnelInfo& t : tunnels) {
        if (!t.valid || !t.eligible) continue;
        for (const TunnelInfo& up : tunnels) {
          if (!up.valid || !up.eligible) continue;
          if (invalidates(graph, options, baseline, t, up))
            edges[t.index].push_back(up.index);
        }
      }
      if (const auto wheel = find_wheel(tunnels, edges)) {
        std::string pivots;
        for (const std::size_t index : *wheel) {
          if (!pivots.empty()) pivots += " -> ";
          pivots += as_str(graph, tunnels[index].spec->responder);
        }
        pivots += " -> " + as_str(graph, tunnels[*wheel->begin()].spec->responder);
        Diagnostic& diag = report.add(
            Severity::Error, "conv.dispute-wheel",
            "dispute wheel: " + std::to_string(wheel->size()) +
                " tunnels invalidate one another in a cycle; the system can "
                "oscillate forever (pivots " + pivots + ")");
        diag.at(label).fix(
            "apply one of Guidelines B-E at the pivot ASes to break the "
            "wheel");
        for (std::size_t k = 0; k < wheel->size(); ++k) {
          const TunnelInfo& info = tunnels[(*wheel)[k]];
          const TunnelInfo& nxt = tunnels[(*wheel)[(k + 1) % wheel->size()]];
          std::string rim = "pivot " + as_str(graph, info.spec->responder) +
                            ": rim path " +
                            (info.path ? path_str(graph, *info.path)
                                       : std::string("(unpinned)")) +
                            " (" + as_str(graph, info.spec->requester) +
                            "'s tunnel toward " +
                            as_str(graph, info.spec->destination) +
                            "), invalidated when " +
                            as_str(graph, nxt.spec->requester) +
                            "'s tunnel via " +
                            as_str(graph, nxt.spec->responder) + " comes up";
          diag.note(std::move(rim));
        }
      }
    }
  }

  if (any_unguarded_tunnel && !report.has("conv.dispute-wheel")) {
    report
        .add(Severity::Note, "conv.unguarded",
             "tunnels are requested by ASes following no convergence "
             "guideline (B-E); no dispute wheel was found, but safety rests "
             "on this static analysis alone")
        .at(label);
  }
  report.sort();
  return report;
}

}  // namespace miro::analysis
