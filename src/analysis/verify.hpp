// Layer-3 verification driver: query parsing, the network-wide
// `miro_lint verify` report, and the negotiation-admissibility check.
//
// Queries name endpoints the way operators do — by AS number or by IP
// address. Every AS is assigned a deterministic synthetic /24 and the
// addresses resolve through the longest-prefix-match trie, so
// `avoid:65001:10.0.39.7:7007` and `avoid:65001:39:7007` ask the same
// question. The four static queries of symbolic_routes.hpp surface here as
// Diagnostics with witness routes: reachability and avoid-AS feasibility
// per --query, export-violation/route-leak detection over sampled
// destinations, and negotiation admissibility over a (requester, responder)
// configuration pair.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/symbolic_routes.hpp"
#include "net/address.hpp"
#include "policy/policy_config.hpp"
#include "topology/as_graph.hpp"

namespace miro::analysis {

/// One `--query` spec: `reach:<src>:<dst>` or `avoid:<src>:<dst>:<x>`.
/// Endpoint tokens stay textual until resolve_endpoint() binds them to a
/// graph (decimal AS number, or dotted IPv4 resolved via the synthetic
/// prefixes).
struct VerifyQuery {
  enum class Kind : std::uint8_t { Reach, Avoid };
  Kind kind = Kind::Reach;
  std::string source;
  std::string destination;
  std::string avoid;  ///< Avoid queries only

  /// Parses a spec; throws miro::Error on malformed input.
  static VerifyQuery parse(std::string_view spec);
};

/// The deterministic /24 an AS originates in the verification plane, one
/// per AS number below 2^24: ((10 + asn / 65536) mod 256).(asn >> 8 &
/// 255).(asn & 255).0/24, so AS numbers below 65536 sit in 10.0.0.0/8.
/// Throws for a larger AS number.
net::Prefix synthetic_prefix(topo::AsNumber asn);

/// Resolves an endpoint token — a decimal AS number, or a dotted IPv4
/// address naming the AS whose synthetic /24 holds it — to a node.
/// Throws miro::Error when the token parses but names no AS in `graph`.
topo::NodeId resolve_endpoint(const topo::AsGraph& graph,
                              std::string_view token);

struct VerifyOptions {
  std::vector<VerifyQuery> queries;
  /// Destinations swept by the network-wide leak check (sampled, seeded)
  /// in addition to every queried destination.
  std::size_t destination_samples = 8;
  std::uint64_t seed = 42;
  /// Also run the differential oracle against the simulator and merge its
  /// findings.
  bool differential = false;
  DifferentialOptions diff;
  SymbolicOptions engine;
};

/// The network-wide verification report: preconditions, per-destination
/// fixpoints + export-safety sweep, the explicit queries, and (optionally)
/// the differential round. Error findings follow the miro_lint contract:
/// an unreachable queried pair, an infeasible avoid, a leak, or a plane
/// divergence is an error; healthy outcomes are notes carrying witnesses.
Report verify_network(const topo::AsGraph& graph, const VerifyOptions& options,
                      std::string_view label = "");

/// Static query #3 — negotiation admissibility: for every negotiation the
/// requester's configuration can start, would the responder's configuration
/// ever admit the session and export an alternate matching the request?
/// Decided from the configs alone: the accept list and tunnel budget, the
/// request pattern's own satisfiability (language_empty), the automaton
/// product of the request pattern against the responder's outbound
/// route-map filters (intersection_empty), and the pricing filters against
/// the requester's maximum cost and the conventional local-preference
/// bands.
Report check_negotiation_admissibility(const policy::BgpConfig& requester,
                                       std::string_view requester_file,
                                       const policy::BgpConfig& responder,
                                       std::string_view responder_file);

}  // namespace miro::analysis
