// The Chapter 7 abstract model of MIRO: BGP routes plus routing tunnels
// under activation sequences, with the convergence guidelines as pluggable
// constraints.
//
// State: for every (speaker, destination prefix) pair, a BGP-layer route and
// an optional established tunnel route (Section 7.1.1's (R, T)). *Activating*
// a speaker re-runs its selection for every prefix: the BGP route is chosen
// from what neighbors currently advertise; the tunnel route is re-validated /
// re-established from the tunnel specifications. A state is stable when no
// activation changes anything; divergence is demonstrated by revisiting a
// global state fingerprint under a deterministic schedule.
//
// This is the repository's one activation model (Sections 2.2.3, 7.1): with
// no tunnels it is plain BGP, whose stable state under the default policy
// hooks equals StableRouteSolver's, and custom `prefers`/`exports` hooks
// express the Griffin gadgets and the Section 7.2 guideline variants.
//
// Guidelines (Section 7.3, 7.4):
//   None       — tunnels freely replace BGP routes, are advertised onward,
//                and ride on whatever route currently reaches the responder.
//                Diverges on the Figure 7.1 gadget.
//   StrictOnly — "strict policy": a responder only offers routes in the same
//                class as its advertised BGP route. Still diverges on the
//                Figure 7.2 gadget (that is the figure's point).
//   B          — tunnels are a separate higher layer: built only over pure
//                BGP routes and never advertised as BGP paths (§7.3.1).
//   C          — like B, but tunnel routes may additionally be advertised as
//                BGP routes to leaf (stub) ASes, which never re-export
//                (§7.3.2).
//   D          — strict policy + a strict partial order ≺ per AS: a tunnel
//                toward prefix d via first downstream v is preferred only
//                when v ≺ d (§7.3.3, Guideline D).
//   E          — strict policy + a tunnel may not ride on a route that uses
//                one of the speaker's own tunnels, and (the Banker's-style
//                local check the dissertation sketches for on-the-fly
//                validation) establishing a tunnel is refused when it would
//                invalidate one of the speaker's existing tunnels (§7.3.3,
//                Guideline E).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/route.hpp"
#include "common/rng.hpp"

namespace miro::conv {

using bgp::RouteClass;
using topo::AsGraph;
using topo::NodeId;

using Path = std::vector<NodeId>;

enum class Guideline { None, StrictOnly, B, C, D, E };
const char* to_string(Guideline guideline);

/// One permitted tunnel negotiation (an edge of E' in the model): the
/// requester may establish a tunnel toward `destination` with `responder`.
struct TunnelSpec {
  NodeId requester = topo::kInvalidNode;
  NodeId responder = topo::kInvalidNode;
  NodeId destination = topo::kInvalidNode;
  /// When set, the requester accepts only this exact end-to-end path — the
  /// gadgets use it to express "A wants ABD, nothing else".
  std::optional<Path> required_path;
};

struct ModelOptions {
  Guideline guideline = Guideline::None;
  std::vector<TunnelSpec> tunnels;
  /// Guideline D's strict partial order: returns true when
  /// first_downstream ≺_node destination. Required when any AS follows D.
  std::function<bool(NodeId node, NodeId first_downstream, NodeId destination)>
      partial_order;
  /// Per-AS guideline override (Section 7.4's mixing results: e.g. some
  /// ASes conforming to C while others conform to D or E, convergence is
  /// still guaranteed). When unset, every AS follows `guideline`.
  std::function<Guideline(NodeId node)> guideline_of;
  /// Strict BGP preference between two candidate routes at the same owner.
  /// Default: bgp::prefer (class rank, then length, then next-hop AS).
  std::function<bool(const bgp::Route& better, const bgp::Route& worse)>
      prefers;
  /// May `owner` advertise `route` (its chosen route, classed at `owner`)
  /// to `neighbor`? Default: the conventional export rule on its class.
  std::function<bool(NodeId owner, const bgp::Route& route, NodeId neighbor)>
      exports;
};

/// Per-(speaker, prefix) state: the BGP layer and the tunnel layer.
struct LayeredRoute {
  std::optional<Path> bgp;
  std::optional<Path> tunnel;
  /// What the speaker actually uses: the tunnel when one is established.
  const std::optional<Path>& effective() const {
    return tunnel ? tunnel : bgp;
  }
  bool operator==(const LayeredRoute&) const = default;
};

class MiroConvergenceModel {
 public:
  /// Unset `prefers`/`exports` hooks get their defaults here. Throws
  /// miro::Error when `destinations` is empty or names a node outside
  /// `graph`, or when Guideline D is used without a partial order.
  MiroConvergenceModel(const AsGraph& graph, std::vector<NodeId> destinations,
                       ModelOptions options);

  /// Activates one speaker for every destination (in destination order);
  /// returns true when any route changed.
  bool activate(NodeId node);
  /// Activates one (speaker, destination) pair.
  bool activate(NodeId node, NodeId destination);

  /// True when no activation would change anything.
  bool is_stable();

  struct RunResult {
    bool converged = false;
    bool cycle_detected = false;  ///< a global state repeated: divergence
    std::size_t activations = 0;
  };

  /// Deterministic round-robin sweeps with state-fingerprint cycle
  /// detection. A repeated fingerprint under this deterministic schedule
  /// proves the system oscillates forever on it.
  RunResult run_round_robin(std::size_t max_sweeps = 256);

  /// Synchronous steps: every speaker re-selects simultaneously from the
  /// previous state (the schedule under which DISAGREE oscillates), with
  /// the same cycle detection as run_round_robin. Each step counts one
  /// activation per speaker.
  RunResult run_synchronous(std::size_t max_steps = 256);

  /// Random fair schedule (for property tests).
  RunResult run_random(Rng& rng, std::size_t max_activations);

  /// Throws miro::Error when `node` is out of range or `destination` is not
  /// one of the model's destinations.
  const LayeredRoute& route(NodeId node, NodeId destination) const;

  /// The BGP routes `node` would choose from if activated now (one per
  /// advertising neighbor, loops rejected), most preferred first.
  std::vector<bgp::Route> candidates(NodeId node, NodeId destination) const;

  /// Hash of the entire system state.
  std::uint64_t fingerprint() const;

  const AsGraph& graph() const { return *graph_; }
  const std::vector<NodeId>& destinations() const { return destinations_; }

 private:
  /// The guideline `node` conforms to.
  Guideline guideline_at(NodeId node) const {
    return options_.guideline_of ? options_.guideline_of(node)
                                 : options_.guideline;
  }
  /// What `owner` currently advertises to `to` for `destination` under the
  /// guideline's advertisement rules; nullopt when nothing is exported.
  std::optional<Path> advertised(NodeId owner, NodeId destination,
                                 NodeId to) const;
  /// The route `node` learns from neighbor `from`: its advertisement with
  /// `node` prepended; nullopt when nothing is advertised or it would loop.
  std::optional<bgp::Route> learned(NodeId node, NodeId from,
                                    NodeId destination) const;
  std::optional<Path> select_bgp(NodeId node, NodeId destination) const;
  std::optional<Path> select_tunnel(NodeId node, NodeId destination) const;
  LayeredRoute select(NodeId node, NodeId destination) const {
    return {select_bgp(node, destination), select_tunnel(node, destination)};
  }
  /// Repeats `round` (which returns whether it changed anything) until a
  /// round changes nothing or the global state recurs.
  RunResult run_rounds(std::size_t max_rounds,
                       const std::function<bool()>& round);

  std::size_t index_of(NodeId node, NodeId destination) const;

  const AsGraph* graph_;
  std::vector<NodeId> destinations_;
  std::unordered_map<NodeId, std::size_t> destination_index_;
  ModelOptions options_;
  std::vector<LayeredRoute> state_;  // node-major, destination-minor
};

}  // namespace miro::conv
