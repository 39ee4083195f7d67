// Lazy cache of stable routing trees, one per destination.
//
// Both the control-plane agents and the evaluation harness need the stable
// routes toward many destinations; solving is cheap (one Dijkstra-style pass
// per destination) but worth caching across agents within a scenario.
//
// The cache is the eval pipeline's dominant heap consumer (one Entry per AS
// per destination); memory_bytes() walks the cached trees for the
// deterministic footprint the bench rows and memory accounts report.
#pragma once

#include <memory>
#include <unordered_map>

#include "bgp/path_table.hpp"
#include "bgp/route_solver.hpp"
#include "common/memtrack.hpp"

namespace miro::core {

class RouteStore {
 public:
  explicit RouteStore(const topo::AsGraph& graph) : solver_(graph) {}

  /// The stable routing tree toward `destination`, solved on first use.
  const bgp::RoutingTree& tree(topo::NodeId destination) {
    auto it = trees_.find(destination);
    if (it == trees_.end()) {
      it = trees_
               .emplace(destination, std::make_unique<bgp::RoutingTree>(
                                         solver_.solve(destination)))
               .first;
    }
    return *it->second;
  }

  std::size_t tree_count() const { return trees_.size(); }

  /// The store's AS-path intern table: agents that pin or compare routes
  /// (tunnel bookkeeping, RIB snapshots) intern here so equal paths share
  /// storage and compare as one integer.
  bgp::PathTable& paths() { return paths_; }
  const bgp::PathTable& paths() const { return paths_; }
  /// Interns a route's path; resolve back with materialize().
  bgp::InternedRoute intern(const bgp::Route& route) {
    return paths_.intern(route);
  }
  bgp::Route materialize(const bgp::InternedRoute& route) const {
    return paths_.materialize(route);
  }

  /// Resident byte footprint of the cache: the map, each cached tree (its
  /// object and its entry array), and the intern table. Capacity-based and
  /// deterministic for a given solve/intern sequence.
  std::uint64_t memory_bytes() const {
    std::uint64_t bytes = hash_map_bytes(trees_) + paths_.memory_bytes();
    for (const auto& [destination, tree] : trees_)
      bytes += sizeof(bgp::RoutingTree) + tree->memory_bytes();
    return bytes;
  }

  const bgp::StableRouteSolver& solver() const { return solver_; }
  const topo::AsGraph& graph() const { return solver_.graph(); }

 private:
  bgp::StableRouteSolver solver_;
  std::unordered_map<topo::NodeId, std::unique_ptr<bgp::RoutingTree>> trees_;
  bgp::PathTable paths_;
};

}  // namespace miro::core
