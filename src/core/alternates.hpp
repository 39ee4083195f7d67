// Analytic MIRO negotiation over stable BGP state.
//
// This is the AS-level heart of the system: given the stable routes, it
// answers what a requesting AS can obtain by pull-based negotiation —
// with its immediate neighbors ("1-hop") or with any AS on its default path
// ("path"), under each of the Chapter 5 export policies — and implements the
// avoid-an-AS procedure whose success rates Table 5.2 reports and whose
// negotiation footprint Table 5.3 reports. The event-driven message protocol
// in core/protocol.* performs the same computation message-by-message; this
// class is the closed-form equivalent the evaluation harness runs at scale.
#pragma once

#include <optional>
#include <vector>

#include "bgp/route_solver.hpp"
#include "core/export_policy.hpp"

namespace miro::core {

using bgp::RoutingTree;
using bgp::StableRouteSolver;
using topo::NodeId;

/// An end-to-end path assembled from the requester's default path to the
/// responder plus the alternate the responder offered. In the data plane the
/// suffix from the responder onward is reached through a tunnel.
struct SplicedPath {
  std::vector<NodeId> as_path;   ///< full AS path, source..destination
  NodeId responder = topo::kInvalidNode;
  std::size_t responder_index = 0;  ///< position of responder in as_path
  Route offered;                 ///< alternate as announced by the responder

  bool traverses(NodeId node) const;
};

/// Which ASes the requester negotiates with (Figures 5.2/5.3 sweep both).
enum class NegotiationScope {
  OneHop,  ///< immediate neighbors only
  OnPath,  ///< every AS on the default BGP path to the destination
};

const char* to_string(NegotiationScope scope);

/// The routes `responder` may offer toward `tree.destination()` to a
/// requester whose traffic arrives from `arrival_neighbor` (the AS before
/// the responder on the requester's default path; the requester itself for
/// 1-hop negotiation): its learned candidates, filtered by `policy` on that
/// link. An arrival neighbor that is not adjacent counts as a provider, the
/// most conservative export. MiroAgent answers a RouteRequest with this set;
/// AlternatesEngine is its closed form.
std::vector<Route> offered_routes(const StableRouteSolver& solver,
                                  const RoutingTree& tree, NodeId responder,
                                  NodeId arrival_neighbor,
                                  ExportPolicy policy);

class AlternatesEngine {
 public:
  explicit AlternatesEngine(const StableRouteSolver& solver)
      : solver_(&solver) {}

  /// Every distinct alternate end-to-end path `source` can obtain for
  /// `tree.destination()` under the given scope and policy, excluding the
  /// default path itself. `deployed`, when non-null, marks which ASes run
  /// MIRO and answer negotiations (incremental-deployment experiments).
  std::vector<SplicedPath> collect(const RoutingTree& tree, NodeId source,
                                   NegotiationScope scope,
                                   ExportPolicy policy,
                                   const std::vector<bool>* deployed =
                                       nullptr) const;

  /// Number of distinct alternate paths (same semantics as collect).
  std::size_t count(const RoutingTree& tree, NodeId source,
                    NegotiationScope scope, ExportPolicy policy,
                    const std::vector<bool>* deployed = nullptr) const;

  /// Result of the avoid-an-AS procedure (Section 5.3).
  struct AvoidResult {
    bool success = false;        ///< found a path avoiding the AS
    bool bgp_success = false;    ///< plain BGP already offered one
    bool used_multihop = false;  ///< a responder had to ask downstream
    std::size_t ases_contacted = 0;   ///< negotiations initiated
    std::size_t paths_received = 0;   ///< candidate routes received in total
    std::optional<SplicedPath> chosen;
  };

  /// Tries to find a route from `source` to `tree.destination()` that avoids
  /// `avoid`, which must lie on the source's default path. First checks the
  /// source's plain-BGP candidate routes; then negotiates with the ASes on
  /// the default path between the source and the offending AS, closest
  /// first, taking the first acceptable offer.
  AvoidResult avoid_as(const RoutingTree& tree, NodeId source, NodeId avoid,
                       ExportPolicy policy,
                       const std::vector<bool>* deployed = nullptr) const;

  /// Like avoid_as, but when a responder has nothing acceptable it may in
  /// turn negotiate with the downstream ASes on its own candidate paths —
  /// "AS B may ask AS C to advertise alternate paths as part of satisfying
  /// the request from AS A, if C is not already announcing a path that
  /// avoids AS E" (Section 3.3). One level of recursion ("it is not
  /// envisioned that multi-hop negotiation needs to happen very often").
  AvoidResult avoid_as_multihop(const RoutingTree& tree, NodeId source,
                                NodeId avoid, ExportPolicy policy,
                                const std::vector<bool>* deployed =
                                    nullptr) const;

  const StableRouteSolver& solver() const { return *solver_; }

 private:
  const StableRouteSolver* solver_;
};

}  // namespace miro::core
