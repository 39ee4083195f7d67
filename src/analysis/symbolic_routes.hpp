// Layer 3 of the static analyzer: network-wide symbolic route verification.
//
// Where layer 1 lints one configuration and layer 2 checks convergence
// preconditions, this layer answers the paper's routing questions without
// running the simulator: it propagates *sets of admissible routes* per
// (AS, destination) to a fixpoint over the Gao-Rexford partial order and
// evaluates static queries on the result.
//
// The abstract domain has two cooperating layers per node:
//
//   * an exact layer — the node's best (class, length, next-hop) triple,
//     ordered by the Guideline A preference (class rank, then AS-path
//     length, then lowest next-hop AS number). Because (rank, length)
//     strictly increases along every legal export step, the Bellman-Ford
//     style relaxation below converges to the same unique fixpoint that
//     StableRouteSolver's bucket frontier finalizes in key order, and
//     chains that revisit a node can never be minimal, so the least
//     fixpoint routes are loop-free without an explicit loop check;
//
//   * a feasibility layer — per route class, the length of the shortest
//     export chain that could deliver a route of that class to the node at
//     all (a may-analysis over the same export relation). This
//     over-approximates what any MIRO negotiation could surface, and is
//     exact for reachability: the conventional export rule is monotone in
//     the class (a better class is always exportable where a worse one is),
//     so a node has a feasible chain iff it is reachable in the stable
//     state.
//
// The fixpoint runs Gauss-Seidel sweeps in node order but re-evaluates only
// the nodes on a dirty set: the destination's neighbors to start, then the
// neighbors of every node whose exact triple or feasible lengths moved. A
// node none of whose neighbors moved since its last evaluation would
// recompute the same state, so every sweep's intermediate state, the final
// map and the sweep count equal those of sweeping every node every time.
//
// Fixpoint existence and termination are exactly the layer-2 stability
// preconditions: the customer→provider relation must be acyclic
// (convergence lint's find_provider_cycle), which bounds the length of any
// strictly-improving export chain. preconditions() re-checks this and
// verify drivers refuse to iterate when it fails.
//
// On top of the fixpoint sit the four static queries (reachability,
// avoid-AS feasibility predicting Table 5.2, negotiation admissibility in
// verify.hpp, and export-violation/route-leak detection), each producing
// witness routes in Diagnostic form, plus the correctness centerpiece:
// differential_check() asserts the static predictions bit-match the
// simulated outcomes of StableRouteSolver / AlternatesEngine::avoid_as on
// seeded samples, so any divergence convicts one plane or the other.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "bgp/route_solver.hpp"
#include "common/memtrack.hpp"
#include "core/export_policy.hpp"
#include "topology/as_graph.hpp"

namespace miro::analysis {

using topo::NodeId;

/// Feasibility-layer "no chain of this class" sentinel length.
inline constexpr std::uint32_t kInfeasibleLength = 0xFFFFFFFFu;

/// The fixpoint of one destination: per node, the exact best route plus the
/// per-class feasibility summary. Produced by SymbolicRouteEngine; the
/// accessors mirror bgp::RoutingTree so the two planes compare field by
/// field.
class SymbolicRouteMap {
 public:
  NodeId destination() const { return destination_; }

  // ------------------------------------------------------- exact layer
  bool reachable(NodeId node) const { return entries_[node].reachable; }
  bgp::RouteClass route_class(NodeId node) const { return entries_[node].cls; }
  NodeId next_hop(NodeId node) const { return entries_[node].next_hop; }
  std::uint32_t path_length(NodeId node) const {
    return entries_[node].length;
  }
  /// Full best path [node, ..., destination]; empty when unreachable.
  std::vector<NodeId> path_of(NodeId node) const;
  std::size_t reachable_count() const;

  // ------------------------------------------------- feasibility layer
  /// Could *any* export chain deliver a route of class `cls` to `node`?
  bool feasible(NodeId node, bgp::RouteClass cls) const {
    return entries_[node].feasible_length[bgp::rank(cls)] != kInfeasibleLength;
  }
  /// Any class at all (== stable-state reachability; see header comment).
  bool feasible(NodeId node) const;
  /// Shortest such chain, kInfeasibleLength when none.
  std::uint32_t feasible_length(NodeId node, bgp::RouteClass cls) const {
    return entries_[node].feasible_length[bgp::rank(cls)];
  }

  /// Gauss-Seidel sweeps the solver needed to stabilize: the last sweep
  /// that changed anything, plus the one that confirmed it (diagnostic;
  /// bounded by the longest provider chain, not the node count, on real
  /// topologies).
  std::size_t sweeps() const { return sweeps_; }
  /// Node evaluations the dirty set let through, over all sweeps (a full
  /// sweep of every node would cost sweeps() x (node count - 1)).
  std::size_t evaluations() const { return evaluations_; }

  /// Capacity-walk byte footprint of the per-node state: the
  /// verify.state_bytes bench row.
  std::uint64_t memory_bytes() const { return vector_bytes(entries_); }

 private:
  friend class SymbolicRouteEngine;
  struct Entry {
    NodeId next_hop = topo::kInvalidNode;
    std::uint32_t length = 0;
    bgp::RouteClass cls = bgp::RouteClass::Provider;
    bool reachable = false;
    std::uint32_t feasible_length[4] = {kInfeasibleLength, kInfeasibleLength,
                                        kInfeasibleLength, kInfeasibleLength};
  };
  NodeId destination_ = topo::kInvalidNode;
  std::size_t sweeps_ = 0;
  std::size_t evaluations_ = 0;
  std::vector<Entry> entries_;
};

struct SymbolicOptions {
  /// Fixpoint sweep bound; 0 means node_count + 2 (any well-formed
  /// hierarchy stabilizes well below it; exceeding it throws).
  std::size_t max_sweeps = 0;
  /// Tests only: deliberately mis-implements the export rule (leaks peer
  /// routes to peers and providers), so the differential harness can prove
  /// it fails loudly on a divergent plane.
  bool inject_export_bug = false;
};

class SymbolicRouteEngine {
 public:
  explicit SymbolicRouteEngine(const topo::AsGraph& graph,
                               SymbolicOptions options = {});

  /// Layer-2 stability preconditions the fixpoint relies on; error findings
  /// mean solve() would not be meaningful (and may not terminate were it
  /// not for the sweep bound).
  Report preconditions(std::string_view label = "") const;

  /// The per-destination fixpoint (throws when the sweep bound is hit).
  SymbolicRouteMap solve(NodeId destination) const;

  /// Fixpoint with `avoid` excised from the graph: the static analogue of
  /// StableRouteSolver::solve_avoiding. Throws unless `avoid` is a node of
  /// the graph other than the destination.
  SymbolicRouteMap solve_avoiding(NodeId destination, NodeId avoid) const;

  /// Static prediction of the Section 5.3 avoid-an-AS procedure: the same
  /// decisions AlternatesEngine::avoid_as takes, evaluated over the
  /// symbolic fixpoint instead of the simulator's routing tree. The
  /// counters mirror AvoidResult so the differential can compare them
  /// field by field.
  struct AvoidPrediction {
    bool success = false;
    bool bgp_success = false;
    std::size_t ases_contacted = 0;
    std::size_t paths_received = 0;
    std::vector<NodeId> witness;  ///< spliced avoiding path when successful
  };
  AvoidPrediction predict_avoid(const SymbolicRouteMap& map, NodeId source,
                                NodeId avoid,
                                core::ExportPolicy policy) const;

  /// The plain-BGP candidate pool at `node` implied by the fixpoint: each
  /// neighbor's best route where the neighbor's conventional export policy
  /// allows it and the path is loop-free, best first (the symbolic twin of
  /// StableRouteSolver::candidates_at).
  std::vector<bgp::Route> candidates_at(const SymbolicRouteMap& map,
                                        NodeId node) const;

  const topo::AsGraph& graph() const { return *graph_; }
  const SymbolicOptions& options() const { return options_; }

 private:
  SymbolicRouteMap fixpoint(NodeId destination, NodeId avoid) const;
  bool export_allows(bgp::RouteClass cls, topo::Relationship to_rel) const;
  /// Why a fixpoint outran its sweep bound, for the error: a provider
  /// cycle, or an export relation under which routes keep growing.
  std::string unstable_cause() const;

  const topo::AsGraph* graph_;
  SymbolicOptions options_;
  /// offer_[rel][r]: the class rank a route of rank r takes when a
  /// neighbor that is `rel` to the receiver exports it, or kNoOffer when
  /// the neighbor's export rule withholds it. Built once through
  /// export_allows and bgp::classify, so inject_export_bug applies.
  static constexpr std::uint8_t kNoOffer = 0xFF;
  std::uint8_t offer_[4][4] = {};
  std::vector<topo::AsNumber> asns_;  ///< as_number per node, unchecked
};

/// Network-wide export-violation / route-leak detection: validates every
/// hop of a claimed routing state against the conventional export rule and
/// the classification algebra. Emits error diagnostics
/// (verify.leak.export-violation, verify.leak.class, verify.leak.length,
/// verify.leak.next-hop) with full witness paths. Works on either plane —
/// a symbolic map or a simulator tree — which is what lets the injected-bug
/// test convict the corrupted one.
Report check_export_safety(const topo::AsGraph& graph,
                           const SymbolicRouteMap& map,
                           std::string_view label = "");
Report check_export_safety(const topo::AsGraph& graph,
                           const bgp::RoutingTree& tree,
                           std::string_view label = "");

/// Differential oracle configuration: seeded sampling, mirroring the eval
/// harness's tuple construction.
struct DifferentialOptions {
  std::size_t destination_samples = 6;
  std::size_t sources_per_destination = 6;
  std::uint64_t seed = 1;
  SymbolicOptions engine;
};

/// Outcome of one differential round. `report` carries per-divergence
/// witnesses (error severity) plus a summary note; the counters feed the
/// verify.*_agree bench rows.
struct DifferentialOutcome {
  Report report;
  std::size_t destinations = 0;      ///< trees compared
  std::size_t entries = 0;           ///< per-node entry comparisons
  std::size_t tuples = 0;            ///< (source, dest, avoid, policy) checks
  std::size_t entry_mismatches = 0;
  std::size_t avoid_mismatches = 0;

  double entry_agree() const {
    return entries == 0
               ? 1.0
               : 1.0 - static_cast<double>(entry_mismatches) /
                           static_cast<double>(entries);
  }
  double avoid_agree() const {
    return tuples == 0 ? 1.0
                       : 1.0 - static_cast<double>(avoid_mismatches) /
                                   static_cast<double>(tuples);
  }
  bool ok() const { return report.error_count() == 0; }
};

/// Runs the symbolic plane against the simulator plane on seeded samples:
/// per-node tree entries (reachable/class/length/next hop), feasibility
/// consistency, export safety of the simulated trees, poisoned fixpoints
/// vs solve_avoiding, and avoid-AS verdicts (success, bgp_success and the
/// negotiation footprint counters) under all three export policies.
DifferentialOutcome differential_check(const topo::AsGraph& graph,
                                       const DifferentialOptions& options = {},
                                       std::string_view label = "");

}  // namespace miro::analysis
