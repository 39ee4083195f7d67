// Stable BGP route computation under the conventional Gao-Rexford policies.
//
// Under Guideline A (customer > peer > provider), an acyclic customer-
// provider hierarchy, and the conventional export rules, the BGP system has a
// unique stable state (Chapter 7, Theorem 1). This solver computes that state
// for one destination directly, without simulating message exchange: routes
// are finalized in globally non-decreasing preference order (class rank,
// AS-path length, next-hop AS number). Along every legal export step the
// class never improves and the path grows by exactly one hop, so the solver
// keeps a bucket frontier — one list of offers per (class, length) — and
// reads the buckets Customer, then Peer, then Provider, each by ascending
// length. Every offer of a bucket is in it when the bucket is reached; a
// node takes the class and length of the first bucket that offers it a
// route, and the lowest next-hop AS number among that bucket's offers.
// That is O(n + E) per destination, with no priority queue. Sibling links are
// handled transparently (a route keeps the class it had before the sibling
// chain). Every variant below — pinned, prepended, avoiding an AS, without
// failed links — is one pass of the same kernel, whose scratch lives and
// dies with the solve, and a tree is one plain vector of per-node entries.
// The tunnel-free activation model (conv::MiroConvergenceModel) cross-checks
// this solver in the test suite.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "bgp/route.hpp"
#include "common/memtrack.hpp"

namespace miro::bgp {

/// The stable best route of every AS toward one destination.
class RoutingTree {
 public:
  /// Sizes the per-node entry array once; it is never reallocated.
  RoutingTree(const AsGraph& graph, NodeId destination);

  NodeId destination() const { return destination_; }
  bool reachable(NodeId node) const { return entries_[node].reachable; }
  RouteClass route_class(NodeId node) const { return entries_[node].cls; }
  /// Next AS on the best path; the destination's next hop is itself.
  NodeId next_hop(NodeId node) const { return entries_[node].next_hop; }
  std::size_t path_length(NodeId node) const { return entries_[node].length; }

  /// Full best path [node, ..., destination]; empty when unreachable.
  std::vector<NodeId> path_of(NodeId node) const;
  /// Best route object; throws when unreachable.
  Route route_of(NodeId node) const;
  /// The neighbor of the destination through which `node`'s traffic enters
  /// the destination (the "incoming link" of Section 5.4); kInvalidNode when
  /// unreachable or when node == destination.
  NodeId ingress_neighbor(NodeId node) const;

  std::size_t reachable_count() const;

  /// Resident byte footprint of the per-node entry array (capacity-based,
  /// deterministic): the denominator side of bytes_per_route bench rows.
  std::uint64_t memory_bytes() const { return vector_bytes(entries_); }

 private:
  friend class StableRouteSolver;
  /// Tests only: corrupts entries to exercise the bounded-walk guards.
  friend struct RoutingTreeTestAccess;
  struct Entry {
    NodeId next_hop = topo::kInvalidNode;
    std::uint32_t length = 0;
    RouteClass cls = RouteClass::Provider;
    bool reachable = false;
  };
  const AsGraph* graph_;
  NodeId destination_;
  std::vector<Entry> entries_;
};

/// Overrides one AS's route selection: the AS must route via
/// `forced_next_hop` (the alternate it negotiated), and every other AS
/// re-selects independently. Used by the "independent_selection" model of
/// Section 5.4.
struct PinnedRoute {
  NodeId node = topo::kInvalidNode;
  NodeId forced_next_hop = topo::kInvalidNode;
};

/// AS-path prepending at the origin: the destination pads its announcement
/// toward `neighbor` with `extra` copies of its own AS number, the blunt
/// instrument multi-homed ASes use today to discourage one incoming link
/// (Section 1.2's footnote: such methods "may be easily nullified by other
/// ASes' local policy" — local preference is compared before path length).
struct OriginPrepend {
  NodeId neighbor = topo::kInvalidNode;
  std::uint32_t extra = 0;
};

class StableRouteSolver {
 public:
  explicit StableRouteSolver(const AsGraph& graph) : graph_(&graph) {}

  /// Stable routes of every AS toward `destination`.
  RoutingTree solve(NodeId destination) const;

  /// Stable routes with one AS's selection pinned. If the pin is infeasible
  /// (the forced neighbor never offers a route) the pinned AS ends up
  /// unreachable. Throws when the pinned AS is not adjacent to the forced
  /// next hop, or is the destination, whose route is its own origin.
  RoutingTree solve_pinned(NodeId destination, const PinnedRoute& pin) const;

  /// Stable routes when the destination prepends toward one neighbor. The
  /// reported path lengths include the virtual prepended hops. Throws when
  /// the neighbor is not adjacent, or when `extra` exceeds both 255 (one
  /// full AS_SEQUENCE segment) and node_count(): a padding of node_count()
  /// already loses every length comparison to an unpadded path, and the
  /// bound keeps every path length far from wrapping.
  RoutingTree solve_prepended(NodeId destination,
                              const OriginPrepend& prepend) const;

  /// Stable routes toward `destination` with AS `avoid` excised from the
  /// graph: it neither selects a route nor re-advertises one, so no path in
  /// the result traverses it. This is the ground truth "could any policy at
  /// all route around `avoid`" bound that the layer-3 symbolic engine's
  /// poisoned fixpoint is differential-tested against. Throws unless
  /// `avoid` is a node of the graph other than the destination.
  RoutingTree solve_avoiding(NodeId destination, NodeId avoid) const;

  /// Stable routes toward `destination` with the links in `down` failed:
  /// neither end advertises across a failed link. Each pair names a link in
  /// either order; a pair that is not a link throws. This is the state the
  /// churn invariant checker holds a converged network to while links are
  /// down.
  RoutingTree solve_without_links(
      NodeId destination,
      const std::vector<std::pair<NodeId, NodeId>>& down) const;

  /// The candidate routes `node` learns from its neighbors under plain BGP in
  /// the stable state: each neighbor's best route, where the neighbor's
  /// conventional export policy allows it and the path is loop-free. This is
  /// exactly the pool MIRO's responding ASes draw alternates from.
  std::vector<Route> candidates_at(const RoutingTree& tree, NodeId node) const;

  const AsGraph& graph() const { return *graph_; }

 private:
  /// The one kernel behind every solve variant. `exclude` is an excised AS
  /// and `down` holds the failed links as sorted (low id << 32 | high id)
  /// keys; the greedy pass never exports to the one or across the other.
  RoutingTree run(NodeId destination, const PinnedRoute* pin,
                  const OriginPrepend* prepend,
                  NodeId exclude = topo::kInvalidNode,
                  std::span<const std::uint64_t> down = {}) const;

  const AsGraph* graph_;
};

}  // namespace miro::bgp
