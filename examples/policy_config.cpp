// Driving MIRO from the Chapter 6 policy language.
//
// Parses the dissertation's Section 6.3 requester and responder
// configurations (the "extended route-map" syntax), evaluates the requester's
// trigger against its BGP candidates on the Figure 3.1 topology, prices the
// responder's candidate routes through its negotiation filter, and completes
// the negotiation within the budget the policy sets over the MIRO control
// plane, with the responder's agent enforcing the parsed rules.
//
// Build & run:  ./build/examples/policy_config
#include <iostream>

#include "core/protocol.hpp"
#include "policy/policy_engine.hpp"
#include "topology/figure31.hpp"

using namespace miro;

int main() {
  // Figure 3.1 again; AS numbers 1..6 = A..F, and the "bad" AS is E (= 5).
  const topo::Figure31 fig;
  const topo::AsGraph& graph = fig.graph;
  const auto a = fig.a, b = fig.b, e = fig.e, f = fig.f;

  const char* requester_config = R"(
! Requesting AS (A): always try to avoid AS 5.
router bgp 1
route-map AVOID_AS permit 10
match empty path 200
try negotiation NEG-5
ip as-path access-list 200 deny _5_
ip as-path access-list 200 permit .*
negotiation NEG-5
match all path _5_
start negotiation with maximum cost 250
)";
  const char* responder_config = R"(
! Responding AS (B): sell customer routes for 120, peer routes for 180.
router bgp 2
accept negotiation from any
when tunnel_number < 1000
negotiation filter FILTER-1
filter permit local_pref > 300
set tunnel_cost 120
filter permit local_pref > 100
set tunnel_cost 180
)";

  policy::PolicyEngine requester(policy::parse_config(requester_config));
  const policy::BgpConfig responder = policy::parse_config(responder_config);
  const policy::ResponderSpec& rules = *responder.responder;
  std::cout << "Parsed requester (AS "
            << *requester.config().local_as << ") and responder (AS "
            << *responder.local_as << ") configurations.\n\n";

  // The requester's BGP candidates toward F.
  bgp::StableRouteSolver solver(graph);
  const bgp::RoutingTree tree = solver.solve(f);
  std::vector<policy::CandidateRoute> candidates;
  std::cout << "AS 1's BGP candidates toward AS 6:\n";
  for (const bgp::Route& route : solver.candidates_at(tree, a)) {
    policy::CandidateRoute candidate;
    for (std::size_t i = 1; i < route.path.size(); ++i)
      candidate.as_path.push_back(graph.as_number(route.path[i]));
    candidate.local_pref = bgp::conventional_local_pref(route.route_class);
    std::cout << "  path:";
    for (auto asn : candidate.as_path) std::cout << " " << asn;
    std::cout << "  local-pref " << candidate.local_pref << "\n";
    candidates.push_back(std::move(candidate));
  }

  // Trigger evaluation: every candidate crosses AS 5 -> negotiate.
  const auto trigger = requester.evaluate_trigger("AVOID_AS", candidates);
  if (!trigger) {
    std::cout << "\nno trigger: some candidate already avoids AS 5\n";
    return 0;
  }
  std::cout << "\ntrigger fired: negotiation '" << trigger->negotiation_name
            << "', max cost " << *trigger->max_cost << ", targets:";
  for (auto asn : trigger->targets) std::cout << " AS" << asn;
  std::cout << "\n";

  // Responder side: price what AS 2 could offer.
  std::cout << "\nAS 2 prices its candidate routes toward AS 6:\n";
  bool deal = false;
  for (const bgp::Route& route : solver.candidates_at(tree, b)) {
    const auto price =
        rules.price_for(bgp::conventional_local_pref(route.route_class));
    std::cout << "  path:";
    for (std::size_t i = 1; i < route.path.size(); ++i)
      std::cout << " " << graph.as_number(route.path[i]);
    if (!price) {
      std::cout << "  -> not offered (no filter permits it)\n";
      continue;
    }
    std::cout << "  -> price " << *price;
    const bool avoids = !route.traverses(e);
    const bool affordable = *price <= *trigger->max_cost;
    if (avoids && affordable &&
        rules.admits(*requester.config().local_as, 0)) {
      std::cout << "  ACCEPTED (avoids AS 5, within budget)";
      deal = true;
    } else if (!avoids) {
      std::cout << "  rejected: crosses AS 5";
    } else if (!affordable) {
      std::cout << "  rejected: over budget";
    }
    std::cout << "\n";
  }

  // The same negotiation over the control plane, with B's agent admitting
  // and pricing by the parsed rules.
  core::RouteStore store(graph);
  sim::Scheduler scheduler;
  core::Bus bus(scheduler);
  core::MiroAgent agent_a(a, store, bus);
  core::MiroAgent agent_b(b, store, bus, core::ResponderConfig{.rules = rules});
  core::NegotiationOutcome outcome;
  agent_a.request(b, /*arrival_neighbor=*/a, f, /*avoid=*/e, trigger->max_cost,
                  [&](const core::NegotiationOutcome& o) { outcome = o; });
  scheduler.run_until(1000);
  if (outcome.established) {
    std::cout << "control plane: tunnel " << outcome.tunnel_id
              << " established on path " << outcome.route.to_string(graph)
              << " at price " << outcome.cost << "\n";
  }
  deal = deal && outcome.established;
  std::cout << (deal ? "\nnegotiation succeeds.\n"
                     : "\nnegotiation fails.\n");
  return deal ? 0 : 1;
}
