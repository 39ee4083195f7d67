// Evaluation of parsed Chapter 6 policies.
//
// Ties the configuration language to routing behaviour:
//   import side   — Cisco-style route-map application (the FIX-LOCALPREF
//                   example of Section 6.1);
//   requester side— negotiation triggering ("initiate a negotiation if the
//                   'deny AS 312' rule results in an empty candidate set")
//                   and target selection ("each AS that sits between itself
//                   and AS 312 on any of the current candidate paths").
// The responder side — admission control and price tagging ("sell all
// customer routes for 120, peer routes for 180") — is ResponderSpec's
// trusts/admits/price_for, which core::MiroAgent enforces.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "policy/policy_config.hpp"

namespace miro::policy {

/// A route as the policy layer sees it: the received AS_PATH attribute
/// (which, as in real BGP, does not include the local AS) plus attributes.
struct CandidateRoute {
  std::vector<topo::AsNumber> as_path;
  int local_pref = 100;
};

/// A triggered negotiation with its parameters.
struct NegotiationTrigger {
  std::string negotiation_name;
  std::optional<int> max_cost;
  /// ASes to contact, in contact order (closest on the path first).
  std::vector<topo::AsNumber> targets;
};

class PolicyEngine {
 public:
  explicit PolicyEngine(BgpConfig config) : config_(std::move(config)) {}

  const BgpConfig& config() const { return config_; }

  /// Applies a route map to an incoming route (import processing): returns
  /// the transformed route, or nullopt when a deny clause matches (or when
  /// no clause matches — Cisco's implicit deny).
  std::optional<CandidateRoute> apply_route_map(std::string_view name,
                                                CandidateRoute route) const;

  /// Checks a route map's negotiation trigger against the current candidate
  /// set: a clause with `match empty path <acl>` fires when *no* candidate
  /// passes the access list. On firing, negotiation targets are computed from
  /// the candidates: every intermediate AS sitting before the first AS that
  /// the negotiation's `match all path` pattern identifies.
  std::optional<NegotiationTrigger> evaluate_trigger(
      std::string_view route_map_name,
      std::span<const CandidateRoute> candidates) const;

 private:
  std::vector<topo::AsNumber> targets_for(
      const NegotiationSpec& spec,
      std::span<const CandidateRoute> candidates) const;

  BgpConfig config_;
};

}  // namespace miro::policy
