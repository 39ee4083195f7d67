#include "churn/invariant_checker.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "bgp/route.hpp"
#include "bgp/route_solver.hpp"
#include "common/memtrack.hpp"

namespace miro::churn {

namespace {

std::uint64_t pair_key(std::uint32_t hi, std::uint32_t lo) {
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

std::string path_string(const std::vector<NodeId>& path) {
  std::ostringstream out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) out << '-';
    out << path[i];
  }
  return out.str();
}

std::string path_string(const bgp::PathTable& paths, bgp::PathId id) {
  return path_string(paths.materialize(id));
}

/// True when the interned path `id` is exactly `expected[from..]`.
bool path_equals(const bgp::PathTable& paths, bgp::PathId id,
                 const std::vector<NodeId>& expected, std::size_t from) {
  for (std::size_t i = from; i < expected.size(); ++i) {
    if (id == bgp::kNullPath || paths.head(id) != expected[i]) return false;
    id = paths.suffix(id);
  }
  return id == bgp::kNullPath;
}

}  // namespace

InvariantChecker::InvariantChecker(bgp::SessionedBgpNetwork& network,
                                   sim::Time tunnel_hold_down,
                                   const core::TunnelMonitor* monitor)
    : network_(&network),
      monitor_(monitor),
      hold_down_(tunnel_hold_down),
      shadow_(network.graph().half_edge_count(), bgp::kNullPath),
      on_path_(network.graph().node_count(), 0) {
  network_->set_message_observer(
      [this](bgp::SessionedBgpNetwork::HalfEdge at_receiver,
             bgp::PathId path) { shadow_[at_receiver] = path; });
}

void InvariantChecker::on_session_flush(NodeId a, NodeId b) {
  const topo::AsGraph& graph = network_->graph();
  shadow_[graph.half_edge(a, b)] = bgp::kNullPath;
  shadow_[graph.half_edge(b, a)] = bgp::kNullPath;
}

void InvariantChecker::add(const char* property, sim::Time now,
                           std::string detail) {
  if (violations_.size() >= kMaxViolations) {
    ++stats_.violations_dropped;
    return;
  }
  violations_.push_back({property, now, last_event_, std::move(detail)});
}

void InvariantChecker::check(sim::Time now) {
  ++stats_.checkpoints;
  check_shadow(now);
  check_failed_link_ribs(now);
  check_paths(now);
  if (monitor_ != nullptr) check_tunnels(now);
  if (!network_->transit_quiet()) return;
  ++stats_.quiet_checkpoints;
  check_loops(now);
  check_export_consistency(now);
  const bool nominal = network_->prefix_announced() &&
                       !network_->hijack_active() &&
                       network_->active_suppressions() == 0;
  if (nominal) {
    ++stats_.solver_comparisons;
    check_solver(now);
  }
}

void InvariantChecker::final_check(sim::Time now) {
  if (!network_->transit_quiet()) {
    add("replay-quiescence", now,
        "replay drained but network is not transit-quiet (" +
            std::to_string(network_->messages_in_flight()) + " in flight, " +
            std::to_string(network_->mrai_parked()) + " parked)");
  }
  check(now);
}

void InvariantChecker::check_shadow(sim::Time now) {
  const topo::AsGraph& graph = network_->graph();
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    // Both sides hold interned ids of the one network-wide table, and the
    // wire carries those ids, so entries compare as integers.
    const std::uint32_t first = graph.first_half_edge(n);
    const std::uint32_t last = first + static_cast<std::uint32_t>(
                                           graph.degree(n));
    std::uint32_t divergent = last;
    for (std::uint32_t h = first; h < last; ++h) {
      if (network_->adj_in(h) != shadow_[h]) {
        divergent = h;
        break;
      }
    }
    if (divergent == last) continue;
    std::size_t held = 0, delivered = 0;
    for (std::uint32_t h = first; h < last; ++h) {
      held += network_->adj_in(h) != bgp::kNullPath;
      delivered += shadow_[h] != bgp::kNullPath;
    }
    add("shadow-rib", now,
        "node " + std::to_string(n) + ": Adj-RIB-In (" +
            std::to_string(held) +
            " entries) diverges from delivered messages (" +
            std::to_string(delivered) +
            "); first divergence: neighbor " +
            std::to_string(graph.half_edge_target(divergent).node));
  }
}

void InvariantChecker::check_failed_link_ribs(sim::Time now) {
  const topo::AsGraph& graph = network_->graph();
  for (const auto& [a, b] : network_->failed_links()) {
    for (const auto& [self, other] : {std::pair{a, b}, std::pair{b, a}}) {
      const std::uint32_t h = graph.half_edge(self, other);
      if (network_->adj_in(h) != bgp::kNullPath) {
        add("failed-link-rib", now,
            "node " + std::to_string(self) +
                " keeps an Adj-RIB-In entry from " + std::to_string(other) +
                " across the failed link");
      }
      if (network_->advertised(h)) {
        add("failed-link-rib", now,
            "node " + std::to_string(self) +
                " still marks its route as advertised to " +
                std::to_string(other) + " across the failed link");
      }
    }
  }
}

void InvariantChecker::check_paths(sim::Time now) {
  const topo::AsGraph& graph = network_->graph();
  const bgp::PathTable& paths = network_->paths();
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    const bgp::PathId best = network_->best_path(n);
    if (best == bgp::kNullPath) continue;
    if (paths.head(best) != n) {
      add("path-wellformed", now,
          "node " + std::to_string(n) + ": best path does not start at the "
          "node: " + path_string(paths, best));
      continue;
    }
    // Walk the chain in place, marking each AS; the walk stops at the
    // first repeat or non-edge, and a second walk clears the marks.
    bool bad = false;
    bgp::PathId id = best;
    for (; id != bgp::kNullPath && !bad; id = paths.suffix(id)) {
      const NodeId hop = paths.head(id);
      const bgp::PathId rest = paths.suffix(id);
      if (hop >= graph.node_count() || on_path_[hop] != 0) {
        bad = true;
      } else {
        on_path_[hop] = 1;
        bad = rest != bgp::kNullPath && !graph.has_edge(hop, paths.head(rest));
      }
    }
    for (bgp::PathId c = best; c != id; c = paths.suffix(c)) {
      const NodeId hop = paths.head(c);
      if (hop < graph.node_count()) on_path_[hop] = 0;
    }
    if (bad) {
      add("path-wellformed", now,
          "node " + std::to_string(n) + ": best path repeats an AS or walks "
          "a non-edge: " + path_string(paths, best));
    }
  }
}

void InvariantChecker::check_tunnels(sim::Time now) {
  const bgp::PathTable& paths = network_->paths();
  for (const auto& tunnel : monitor_->watched()) {
    if (tunnel.destination != network_->destination()) continue;
    // The responder *is* the destination: nothing downstream to break.
    if (tunnel.bound_path.size() < 2) continue;
    const NodeId hop = tunnel.bound_path[1];
    // Mirror TunnelMonitor::on_downstream_change's teardown predicate
    // against the live routing state.
    const bgp::PathId path = network_->best_path(hop);
    bool dead = path == bgp::kNullPath;
    if (!dead) {
      if (tunnel.must_avoid && paths.contains(path, *tunnel.must_avoid)) {
        dead = true;
      } else if (tunnel.strict_binding) {
        dead = !path_equals(paths, path, tunnel.bound_path, 1);
      }
    }
    const std::uint64_t key = pair_key(tunnel.responder, tunnel.id);
    if (!dead) {
      tunnel_bad_since_.erase(key);
      tunnel_reported_.erase(key);
      continue;
    }
    const auto [it, fresh] = tunnel_bad_since_.emplace(key, now);
    if (now - it->second <= hold_down_) continue;
    if (tunnel_reported_.emplace(key, true).second) {
      add("tunnel-hold-down", now,
          "tunnel " + std::to_string(tunnel.id) + " (responder " +
              std::to_string(tunnel.responder) +
              ") outlived its underlying route by more than " +
              std::to_string(hold_down_) + " ticks");
    }
  }
}

void InvariantChecker::check_loops(sim::Time now) {
  const std::size_t count = network_->graph().node_count();
  const bgp::PathTable& paths = network_->paths();
  // The next hop of `node`: the head of its best path's suffix;
  // kInvalidNode at an origin.
  const auto next_hop = [&](NodeId node) {
    const bgp::PathId rest = paths.suffix(network_->best_path(node));
    return rest == bgp::kNullPath ? topo::kInvalidNode : paths.head(rest);
  };
  // The first `hops` + 1 ASes of the next-hop walk from `n`.
  const auto walk_string = [&](NodeId n, std::size_t hops) {
    std::vector<NodeId> walk{n};
    for (NodeId cur = n; walk.size() <= hops; walk.push_back(cur))
      cur = next_hop(cur);
    return path_string(walk);
  };
  for (NodeId n = 0; n < count; ++n) {
    if (!network_->has_route(n)) continue;
    NodeId cur = n;
    std::size_t steps = 0;
    for (;;) {
      cur = next_hop(cur);
      if (cur == topo::kInvalidNode) break;  // reached an origin
      if (!network_->has_route(cur)) {
        add("forwarding-loop", now,
            "walk from " + std::to_string(n) + " reaches " +
                std::to_string(cur) + " which has no route: " +
                walk_string(n, steps + 1));
        break;
      }
      if (++steps > count) {
        add("forwarding-loop", now,
            "next-hop walk from " + std::to_string(n) +
                " does not terminate: " + walk_string(n, steps));
        break;
      }
    }
  }
}

void InvariantChecker::check_export_consistency(sim::Time now) {
  const topo::AsGraph& graph = network_->graph();
  const bgp::PathTable& paths = network_->paths();
  for (NodeId m = 0; m < graph.node_count(); ++m) {
    const bgp::PathId best = network_->best_path(m);
    std::uint32_t h = graph.first_half_edge(m);
    for (const topo::Neighbor& nb : graph.neighbors(m)) {
      const std::uint32_t out = h++;
      if (!network_->session_up(out)) continue;
      const bool expected =
          best != bgp::kNullPath &&
          bgp::conventional_export_allows(network_->best_class(m), nb.rel);
      // What nb holds from m sits on nb's half-edge toward m.
      const bgp::PathId held = network_->adj_in(graph.half_edge(nb.node, m));
      if (expected) {
        if (held == bgp::kNullPath) {
          add("rib-export-consistency", now,
              "node " + std::to_string(nb.node) + " misses the route " +
                  std::to_string(m) + " currently exports");
        } else if (held != best) {
          add("rib-export-consistency", now,
              "node " + std::to_string(nb.node) + " holds a stale path from " +
                  std::to_string(m) + ": has " + path_string(paths, held) +
                  ", neighbor's best is " + path_string(paths, best));
        }
        if (!network_->advertised(out)) {
          add("rib-export-consistency", now,
              "node " + std::to_string(m) + " exports to " +
                  std::to_string(nb.node) +
                  " but does not track the advertisement");
        }
      } else if (held != bgp::kNullPath) {
        add("rib-export-consistency", now,
            "node " + std::to_string(nb.node) +
                " holds a route neighbor " + std::to_string(m) +
                " no longer exports: " + path_string(paths, held));
      }
    }
  }
}

void InvariantChecker::check_solver(sim::Time now) {
  const topo::AsGraph& graph = network_->graph();
  const bgp::PathTable& paths = network_->paths();
  const bgp::RoutingTree tree =
      bgp::StableRouteSolver(graph).solve_without_links(
          network_->destination(), network_->failed_links());
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    const bool reachable = tree.reachable(n);
    if (reachable != network_->has_route(n)) {
      add("solver-agreement", now,
          "node " + std::to_string(n) + (reachable
              ? " has no route but the stable solution reaches it"
              : " has a route but the stable solution does not reach it"));
      continue;
    }
    if (!reachable) continue;
    // Walk the tree's next hops alongside the interned best path.
    const bgp::PathId actual = network_->best_path(n);
    bgp::PathId id = actual;
    bool same = true;
    for (NodeId hop = n;; hop = tree.next_hop(hop)) {
      if (id == bgp::kNullPath || paths.head(id) != hop) {
        same = false;
        break;
      }
      id = paths.suffix(id);
      if (hop == tree.destination()) break;
    }
    if (!same || id != bgp::kNullPath) {
      add("solver-agreement", now,
          "node " + std::to_string(n) + ": converged to " +
              path_string(paths, actual) + ", stable solution is " +
              path_string(tree.path_of(n)));
    }
  }
}

std::uint64_t InvariantChecker::memory_bytes() const {
  return vector_bytes(shadow_) + vector_bytes(on_path_) +
         hash_map_bytes(tunnel_bad_since_) + hash_map_bytes(tunnel_reported_);
}

}  // namespace miro::churn
