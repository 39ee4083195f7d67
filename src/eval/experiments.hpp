// Shared plumbing for the Chapter 5 experiments.
//
// Every experiment runs over a named topology profile with deterministic
// sampling: destinations are sampled, one stable routing tree is solved per
// destination, and sources / avoid-AS tuples are sampled from each tree. All
// randomness flows from the config seed, so every bench regenerates
// identical tables.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bgp/route_solver.hpp"
#include "common/rng.hpp"
#include "eval/avoidance_index.hpp"
#include "topology/generator.hpp"

namespace miro::eval {

using bgp::RoutingTree;
using bgp::StableRouteSolver;
using topo::AsGraph;
using topo::NodeId;

struct EvalConfig {
  std::string profile = "gao2005";
  /// Shrinks the profile's node counts, for quick runs and tests.
  double scale = 1.0;
  std::size_t destination_samples = 100;
  std::size_t sources_per_destination = 50;
  std::uint64_t seed = 42;
};

/// One sampled (source, destination) pair with its default path.
struct SampledPair {
  NodeId source;
  NodeId destination;
  std::size_t tree_index;  ///< index into ExperimentPlan::trees
};

/// One sampled avoid-AS tuple: the offending AS lies on the source's default
/// path and is not an immediate neighbor of the source (Section 5.3's
/// exclusions).
struct SampledTuple {
  NodeId source;
  NodeId destination;
  NodeId avoid;
  std::size_t tree_index;
};

/// Pre-solved routing state shared by the experiments.
class ExperimentPlan {
 public:
  /// Generates the topology and solves trees for sampled destinations.
  explicit ExperimentPlan(const EvalConfig& config);

  const AsGraph& graph() const { return *graph_; }
  const StableRouteSolver& solver() const { return *solver_; }
  const std::vector<RoutingTree>& trees() const { return trees_; }
  const RoutingTree& tree(std::size_t index) const { return trees_[index]; }

  /// The tree toward `destination`: the pre-solved one when it is one of
  /// the sampled destinations, else a fresh solve parked in `local`.
  /// Experiments that pick their own targets (TE stubs) come here before
  /// paying a solve — at full scale a solve walks the whole 70k-node graph.
  /// The lookup is read-only, so workers may call it concurrently.
  const RoutingTree& tree_toward(NodeId destination,
                                 std::optional<RoutingTree>& local) const;

  /// Sampled (source, destination) pairs, `per_destination` per tree.
  /// Memoized per (per_destination, salt): the avoid-AS, negotiation-state,
  /// and incremental-deployment experiments all iterate the same tuple set,
  /// and re-deriving it walks every default path again. Not thread-safe;
  /// call from the serial orchestration layer (as the experiments do).
  const std::vector<SampledPair>& sample_pairs(std::size_t per_destination,
                                               std::uint64_t salt = 0) const;

  /// Sampled avoid-AS tuples derived from the pairs: every intermediate AS
  /// on the default path except the source's first hop and the destination.
  /// Memoized like sample_pairs.
  const std::vector<SampledTuple>& sample_tuples(std::size_t per_destination,
                                                 std::uint64_t salt = 0) const;

  /// Builds the plan's source-routing reachability index (one DFS over the
  /// graph) on the first call; later calls return at once. One index
  /// answers every (destination, avoid) key, so `tuples` is not read. Not
  /// thread-safe; call from the serial orchestration layer before fanning
  /// out workers that read avoid_reachable().
  void precompute_avoidance(const std::vector<SampledTuple>& tuples) const;

  /// The sources that still reach `destination` with `avoid` removed:
  /// avoid_reachable(d, a)[s] is reachable_avoiding(graph(), s, d, a).
  /// Throws until precompute_avoidance has run; the index is then read-only
  /// and safe to query from many threads.
  AvoidanceView avoid_reachable(NodeId destination, NodeId avoid) const;

  const EvalConfig& config() const { return config_; }

  /// Deterministic footprint of the plan's routing state (capacity walk over
  /// the solved trees and destination list), and the route count behind the
  /// bytes_per_route bench rows: one route per reachable (node, tree) pair.
  std::uint64_t trees_memory_bytes() const;
  std::uint64_t route_count() const;

 private:
  EvalConfig config_;
  std::unique_ptr<AsGraph> graph_;
  std::unique_ptr<StableRouteSolver> solver_;
  std::vector<NodeId> destinations_;
  std::vector<RoutingTree> trees_;
  // Memoization caches; filled lazily from the serial experiment layer,
  // read-only once workers fan out. std::map keeps iteration (and thus any
  // accounting walk) deterministic.
  mutable std::map<std::pair<std::size_t, std::uint64_t>,
                   std::vector<SampledPair>>
      pair_cache_;
  mutable std::map<std::pair<std::size_t, std::uint64_t>,
                   std::vector<SampledTuple>>
      tuple_cache_;
  mutable std::optional<AvoidanceIndex> avoidance_;
};

/// Inbound traffic toward `tree.destination()` under Section 5.4's uniform
/// model: every source that reaches the destination sends one unit along
/// its default path.
struct InboundView {
  /// Sources entering the destination over each neighbor, by node id.
  std::vector<std::size_t> ingress;
  /// Sources whose default path transits each AS (endpoints excluded).
  std::vector<std::size_t> traverse;
  std::size_t total = 0;  ///< sources that reach the destination

  /// Number of neighbors some traffic enters over.
  std::size_t ingress_links() const;
};

InboundView measure_inbound(const AsGraph& graph, const RoutingTree& tree);

/// Candidate power nodes: the (at most) `count` ASes the most default paths
/// in `view` transit, busiest first, ties to the lowest node id.
std::vector<NodeId> power_nodes(const InboundView& view, std::size_t count);

/// Up to `count` multi-homed stubs of `graph`, in seeded shuffle order.
std::vector<NodeId> sample_multi_homed_stubs(const AsGraph& graph,
                                             std::uint64_t seed,
                                             std::size_t count);

/// True when `destination` is reachable from `source` in the graph with
/// `avoid` removed — the success criterion for unconstrained source routing
/// (Table 5.2's last column). A removed AS reaches nothing and nothing
/// reaches it; otherwise a node reaches itself. BFS over the undirected
/// graph, the reference AvoidanceIndex is tested against. Throws
/// miro::Error unless all three ids are below node_count().
bool reachable_avoiding(const AsGraph& graph, NodeId source,
                        NodeId destination, NodeId avoid);

}  // namespace miro::eval
