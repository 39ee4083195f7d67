// Lazy cache of stable routing trees, one per destination.
//
// Both the control-plane agents and the evaluation harness need the stable
// routes toward many destinations; solving is cheap (one bucket-frontier
// pass per destination) but worth caching across agents within a scenario.
//
// The cache is the eval pipeline's dominant heap consumer (one Entry per AS
// per destination); memory_bytes() walks the cached trees for the
// deterministic footprint the bench rows and memory accounts report.
#pragma once

#include <memory>
#include <unordered_map>

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

  /// Resident byte footprint of the cache: the map and each cached tree
  /// (its object and its entry array). Capacity-based and deterministic
  /// for a given solve sequence.
  std::uint64_t memory_bytes() const {
    std::uint64_t bytes = hash_map_bytes(trees_);
    for (const auto& [destination, tree] : trees_)
      bytes += sizeof(bgp::RoutingTree) + tree->memory_bytes();
    return bytes;
  }

  const bgp::StableRouteSolver& solver() const { return solver_; }
  const topo::AsGraph& graph() const { return solver_.graph(); }

 private:
  bgp::StableRouteSolver solver_;
  std::unordered_map<topo::NodeId, std::unique_ptr<bgp::RoutingTree>> trees_;
};

}  // namespace miro::core
