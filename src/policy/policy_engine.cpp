#include "policy/policy_engine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace miro::policy {

std::optional<CandidateRoute> PolicyEngine::apply_route_map(
    std::string_view name, CandidateRoute route) const {
  const auto clauses = config_.route_map(name);
  require(!clauses.empty(), "apply_route_map: unknown route map");
  for (const RouteMapClause* clause : clauses) {
    bool matched = true;
    if (clause->match_as_path_acl) {
      const AsPathAccessList* acl =
          config_.access_list(*clause->match_as_path_acl);
      require(acl != nullptr, "apply_route_map: dangling access-list id");
      matched = acl->permits(route.as_path);
    }
    if (clause->match_empty_path_acl) {
      // Trigger-only clauses never match individual routes.
      matched = false;
    }
    if (!matched) continue;
    if (!clause->permit) return std::nullopt;
    if (clause->set_local_pref) route.local_pref = *clause->set_local_pref;
    return route;
  }
  return std::nullopt;  // implicit deny
}

std::optional<NegotiationTrigger> PolicyEngine::evaluate_trigger(
    std::string_view route_map_name,
    std::span<const CandidateRoute> candidates) const {
  for (const RouteMapClause* clause : config_.route_map(route_map_name)) {
    if (!clause->match_empty_path_acl || !clause->try_negotiation) continue;
    const AsPathAccessList* acl =
        config_.access_list(*clause->match_empty_path_acl);
    require(acl != nullptr, "evaluate_trigger: dangling access-list id");
    const bool any_acceptable =
        std::any_of(candidates.begin(), candidates.end(),
                    [acl](const CandidateRoute& route) {
                      return acl->permits(route.as_path);
                    });
    if (any_acceptable) continue;  // a satisfying route exists: no trigger

    auto spec_it = config_.negotiations.find(*clause->try_negotiation);
    require(spec_it != config_.negotiations.end(),
            "evaluate_trigger: dangling negotiation name");
    NegotiationTrigger trigger;
    trigger.negotiation_name = spec_it->second.name;
    trigger.max_cost = spec_it->second.max_cost;
    trigger.targets = targets_for(spec_it->second, candidates);
    return trigger;
  }
  return std::nullopt;
}

std::vector<topo::AsNumber> PolicyEngine::targets_for(
    const NegotiationSpec& spec,
    std::span<const CandidateRoute> candidates) const {
  // "Try to initiate negotiations with each AS that sits between itself and
  // AS 312 on any of the current candidate paths." The negotiation's pattern
  // identifies the offending AS(es); every AS appearing before the first
  // offender on a candidate path is a target, ordered nearest-first and
  // deduplicated.
  std::vector<topo::AsNumber> targets;
  auto add = [&targets](topo::AsNumber asn) {
    if (std::find(targets.begin(), targets.end(), asn) == targets.end())
      targets.push_back(asn);
  };
  for (const CandidateRoute& route : candidates) {
    if (spec.target_path_regex &&
        !spec.target_path_regex->matches(route.as_path))
      continue;  // this path does not involve the offender
    // Find the first AS on the path that the pattern identifies: the first
    // AS whose removal makes the remaining path stop matching is a sound
    // general notion, but expensive; the common `_N_` pattern is detected by
    // testing each AS individually.
    std::size_t offender = route.as_path.size();
    if (spec.target_path_regex) {
      for (std::size_t i = 0; i < route.as_path.size(); ++i) {
        if (spec.target_path_regex->matches({route.as_path[i]})) {
          offender = i;
          break;
        }
      }
    }
    for (std::size_t i = 0; i < offender && i < route.as_path.size(); ++i)
      add(route.as_path[i]);
  }
  return targets;
}

}  // namespace miro::policy
