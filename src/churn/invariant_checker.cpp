#include "churn/invariant_checker.hpp"

#include <algorithm>
#include <set>
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

}  // namespace

InvariantChecker::InvariantChecker(bgp::SessionedBgpNetwork& network,
                                   sim::Time tunnel_hold_down,
                                   const core::TunnelMonitor* monitor)
    : network_(&network),
      monitor_(monitor),
      hold_down_(tunnel_hold_down),
      shadow_(network.graph().node_count()) {
  network_->set_message_observer(
      [this](NodeId from, NodeId to, const std::vector<NodeId>& path) {
        if (path.empty()) {
          shadow_[to].erase(from);
        } else {
          shadow_[to][from] = path;
        }
      });
}

void InvariantChecker::on_session_flush(NodeId a, NodeId b) {
  shadow_[a].erase(b);
  shadow_[b].erase(a);
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
  const std::size_t count = network_->graph().node_count();
  const bgp::PathTable& paths = network_->paths();
  std::vector<NodeId> actual_path;  // scratch for materialized entries
  for (NodeId n = 0; n < count; ++n) {
    // The live RIB holds interned ids; the shadow (rebuilt from observed
    // wire messages, deliberately not sharing the network's table) holds
    // vectors, so entries are compared materialized.
    const auto& actual = network_->adj_in_of(n);
    const auto& shadow = shadow_[n];
    bool diverged = actual.size() != shadow.size();
    NodeId divergent = topo::kInvalidNode;
    for (const auto& [from, path_id] : actual) {
      const auto it = shadow.find(from);
      paths.materialize_into(path_id, actual_path);
      if (it == shadow.end() || it->second != actual_path) {
        diverged = true;
        divergent = from;
        break;
      }
    }
    if (!diverged) continue;
    // Name one divergent neighbor for the diagnostic.
    std::string detail = "node " + std::to_string(n) + ": Adj-RIB-In (" +
                         std::to_string(actual.size()) +
                         " entries) diverges from delivered messages (" +
                         std::to_string(shadow.size()) + ")";
    if (divergent != topo::kInvalidNode)
      detail += "; first divergence: neighbor " + std::to_string(divergent);
    add("shadow-rib", now, std::move(detail));
  }
}

void InvariantChecker::check_failed_link_ribs(sim::Time now) {
  for (const auto& [a, b] : network_->failed_links()) {
    for (const auto& [self, other] : {std::pair{a, b}, std::pair{b, a}}) {
      if (network_->adj_in_of(self).count(other) != 0) {
        add("failed-link-rib", now,
            "node " + std::to_string(self) +
                " keeps an Adj-RIB-In entry from " + std::to_string(other) +
                " across the failed link");
      }
      if (network_->advertised_to_of(self).count(other) != 0) {
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
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    if (!network_->has_route(n)) continue;
    const std::vector<NodeId> path = network_->path_of(n);
    if (path.empty() || path.front() != n) {
      add("path-wellformed", now,
          "node " + std::to_string(n) + ": best path does not start at the "
          "node: " + path_string(path));
      continue;
    }
    std::set<NodeId> seen;
    bool bad = false;
    for (std::size_t i = 0; i < path.size() && !bad; ++i) {
      if (path[i] >= graph.node_count() || !seen.insert(path[i]).second) {
        bad = true;
      } else if (i + 1 < path.size() && !graph.has_edge(path[i], path[i + 1])) {
        bad = true;
      }
    }
    if (bad) {
      add("path-wellformed", now,
          "node " + std::to_string(n) + ": best path repeats an AS or walks "
          "a non-edge: " + path_string(path));
    }
  }
}

void InvariantChecker::check_tunnels(sim::Time now) {
  for (const auto& tunnel : monitor_->watched()) {
    if (tunnel.destination != network_->destination()) continue;
    // The responder *is* the destination: nothing downstream to break.
    if (tunnel.bound_path.size() < 2) continue;
    const NodeId hop = tunnel.bound_path[1];
    // Mirror TunnelMonitor::on_downstream_change's teardown predicate
    // against the live routing state.
    bool dead = !network_->has_route(hop);
    if (!dead) {
      const std::vector<NodeId> path = network_->path_of(hop);
      if (tunnel.must_avoid &&
          std::find(path.begin(), path.end(), *tunnel.must_avoid) !=
              path.end()) {
        dead = true;
      } else if (tunnel.strict_binding) {
        const std::vector<NodeId> expected(tunnel.bound_path.begin() + 1,
                                           tunnel.bound_path.end());
        dead = path != expected;
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
  for (NodeId n = 0; n < count; ++n) {
    if (!network_->has_route(n)) continue;
    NodeId cur = n;
    std::size_t steps = 0;
    std::vector<NodeId> walk{n};
    for (;;) {
      const std::vector<NodeId> path = network_->path_of(cur);
      if (path.size() <= 1) break;  // reached an origin
      cur = path[1];
      walk.push_back(cur);
      if (!network_->has_route(cur)) {
        add("forwarding-loop", now,
            "walk from " + std::to_string(n) + " reaches " +
                std::to_string(cur) + " which has no route: " +
                path_string(walk));
        break;
      }
      if (++steps > count) {
        add("forwarding-loop", now,
            "next-hop walk from " + std::to_string(n) +
                " does not terminate: " + path_string(walk));
        break;
      }
    }
  }
}

void InvariantChecker::check_export_consistency(sim::Time now) {
  const topo::AsGraph& graph = network_->graph();
  for (NodeId m = 0; m < graph.node_count(); ++m) {
    const bool has = network_->has_route(m);
    for (const topo::Neighbor& nb : graph.neighbors(m)) {
      if (!network_->link_is_up(m, nb.node)) continue;
      const bool expected =
          has && bgp::conventional_export_allows(
                     network_->best(m).route_class, nb.rel);
      const auto& rib = network_->adj_in_of(nb.node);
      const auto it = rib.find(m);
      if (expected) {
        if (it == rib.end()) {
          add("rib-export-consistency", now,
              "node " + std::to_string(nb.node) + " misses the route " +
                  std::to_string(m) + " currently exports");
        } else if (network_->paths().materialize(it->second) !=
                   network_->best(m).path) {
          add("rib-export-consistency", now,
              "node " + std::to_string(nb.node) + " holds a stale path from " +
                  std::to_string(m) + ": has " +
                  path_string(network_->paths().materialize(it->second)) +
                  ", neighbor's best is " +
                  path_string(network_->best(m).path));
        }
        if (network_->advertised_to_of(m).count(nb.node) == 0) {
          add("rib-export-consistency", now,
              "node " + std::to_string(m) + " exports to " +
                  std::to_string(nb.node) +
                  " but does not track the advertisement");
        }
      } else if (it != rib.end()) {
        add("rib-export-consistency", now,
            "node " + std::to_string(nb.node) +
                " holds a route neighbor " + std::to_string(m) +
                " no longer exports: " +
                path_string(network_->paths().materialize(it->second)));
      }
    }
  }
}

void InvariantChecker::check_solver(sim::Time now) {
  const topo::AsGraph& graph = network_->graph();
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
    const std::vector<NodeId> expected = tree.path_of(n);
    const std::vector<NodeId> actual = network_->path_of(n);
    if (expected != actual) {
      add("solver-agreement", now,
          "node " + std::to_string(n) + ": converged to " +
              path_string(actual) + ", stable solution is " +
              path_string(expected));
    }
  }
}

std::uint64_t InvariantChecker::memory_bytes() const {
  std::uint64_t bytes = vector_bytes(shadow_);
  for (const auto& rib : shadow_) {
    bytes += hash_map_bytes(rib);
    for (const auto& [from, path] : rib) bytes += vector_bytes(path);
  }
  bytes += hash_map_bytes(tunnel_bad_since_);
  bytes += hash_map_bytes(tunnel_reported_);
  return bytes;
}

}  // namespace miro::churn
