#include "analysis/verify.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace miro::analysis {

using topo::AsGraph;

VerifyQuery VerifyQuery::parse(std::string_view spec) {
  const std::vector<std::string_view> parts = split(spec, ':');
  VerifyQuery query;
  if (parts.size() == 3 && parts[0] == "reach") {
    query.kind = Kind::Reach;
  } else if (parts.size() == 4 && parts[0] == "avoid") {
    query.kind = Kind::Avoid;
    query.avoid = parts[3];
  } else {
    throw Error("bad query '" + std::string(spec) +
                "': expected reach:<src>:<dst> or avoid:<src>:<dst>:<x>");
  }
  query.source = parts[1];
  query.destination = parts[2];
  if (query.source.empty() || query.destination.empty() ||
      (query.kind == Kind::Avoid && query.avoid.empty()))
    throw Error("bad query '" + std::string(spec) + "': empty endpoint");
  return query;
}

namespace {

// A /24 is named by its address's top 24 bits; AS n takes n + 10 * 2^16
// modulo 2^24, which is one-to-one on AS numbers below 2^24.
constexpr std::uint32_t kPrefixCount = 1u << 24;
constexpr std::uint32_t kPrefixOffset = 10u << 16;

}  // namespace

net::Prefix synthetic_prefix(topo::AsNumber asn) {
  if (asn >= kPrefixCount)
    throw Error("AS " + std::to_string(asn) +
                " has no synthetic /24: AS numbers must be below 2^24");
  return {net::Ipv4Address(((asn + kPrefixOffset) % kPrefixCount) << 8), 24};
}

topo::NodeId resolve_endpoint(const AsGraph& graph, std::string_view token) {
  const std::string text(token);
  if (text.find('.') != std::string::npos) {
    const auto address = net::Ipv4Address::parse(text);
    if (!address.has_value())
      throw Error("bad endpoint '" + text + "': not an IPv4 address");
    // The inverse of synthetic_prefix: the address's /24 names one AS.
    const topo::AsNumber asn =
        ((address->value() >> 8) + kPrefixCount - kPrefixOffset) %
        kPrefixCount;
    const NodeId node = graph.find(asn);
    if (node == topo::kInvalidNode)
      throw Error("endpoint '" + text + "' matches no AS prefix");
    return node;
  }
  const std::optional<std::uint64_t> number = parse_u64(text);
  if (!number || *number > std::numeric_limits<topo::AsNumber>::max())
    throw Error("bad endpoint '" + text + "': expected an AS number below "
                "2^32 or an IPv4 address");
  const NodeId node = graph.find(static_cast<topo::AsNumber>(*number));
  if (node == topo::kInvalidNode)
    throw Error("endpoint AS " + text + " is not in the topology");
  return node;
}

Report verify_network(const AsGraph& graph, const VerifyOptions& options,
                      std::string_view label) {
  Report report;
  SymbolicRouteEngine engine(graph, options.engine);
  report.merge(engine.preconditions(label));
  if (report.error_count() != 0) {
    report.sort();
    return report;
  }

  // Resolve the queries first so malformed endpoints throw before any
  // fixpoint work (the CLI maps that to a usage error, not a finding).
  struct Resolved {
    const VerifyQuery* query;
    NodeId source;
    NodeId destination;
    NodeId avoid;
  };
  std::vector<Resolved> resolved;
  resolved.reserve(options.queries.size());
  for (const VerifyQuery& query : options.queries) {
    Resolved r{&query, resolve_endpoint(graph, query.source),
               resolve_endpoint(graph, query.destination), topo::kInvalidNode};
    if (query.kind == VerifyQuery::Kind::Avoid) {
      r.avoid = resolve_endpoint(graph, query.avoid);
      if (r.avoid == r.source || r.avoid == r.destination)
        throw Error("query avoid endpoint equals an endpoint of the pair");
    }
    resolved.push_back(r);
  }

  // Destination sweep: every queried destination plus a seeded sample.
  std::vector<NodeId> destinations;
  for (const Resolved& r : resolved) destinations.push_back(r.destination);
  Rng rng(options.seed);
  for (const std::size_t index : rng.sample_indices(
           graph.node_count(),
           std::min(options.destination_samples, graph.node_count())))
    destinations.push_back(static_cast<NodeId>(index));
  std::sort(destinations.begin(), destinations.end());
  destinations.erase(std::unique(destinations.begin(), destinations.end()),
                     destinations.end());

  // One fixpoint per destination, leak-checked as it lands. Only the maps
  // a query reads below are kept (each holds 28 B per AS).
  std::map<NodeId, SymbolicRouteMap> maps;
  std::size_t reachable_entries = 0;
  std::size_t leak_errors = 0;
  for (const NodeId destination : destinations) {
    SymbolicRouteMap map = engine.solve(destination);
    const Report safety = check_export_safety(graph, map, label);
    leak_errors += safety.error_count();
    report.merge(safety);
    reachable_entries += map.reachable_count();
    if (std::any_of(resolved.begin(), resolved.end(), [&](const Resolved& r) {
          return r.destination == destination;
        }))
      maps.emplace(destination, std::move(map));
  }
  report
      .add(Severity::Note, "verify.sweep.summary",
           std::to_string(destinations.size()) + " destinations verified: " +
               std::to_string(reachable_entries) + " routes admitted, " +
               std::to_string(leak_errors) + " export violations")
      .at(label);

  // Explicit queries, with witness routes.
  for (const Resolved& r : resolved) {
    const SymbolicRouteMap& map = maps.at(r.destination);
    const std::string pair =
        as_str(graph, r.source) + " -> " + as_str(graph, r.destination);
    if (!map.reachable(r.source)) {
      report
          .add(Severity::Error, "verify.query.unreachable",
               pair + ": no admissible route exists")
          .at(label);
      continue;
    }
    if (r.query->kind == VerifyQuery::Kind::Reach) {
      Diagnostic& d =
          report
              .add(Severity::Note, "verify.query.reach",
                   pair + ": reachable via a " +
                       bgp::to_string(map.route_class(r.source)) +
                       " route of length " +
                       std::to_string(map.path_length(r.source)))
              .at(label)
              .note("best path: " + path_str(graph, map.path_of(r.source)));
      std::string classes;
      for (const bgp::RouteClass cls :
           {bgp::RouteClass::Customer, bgp::RouteClass::Peer,
            bgp::RouteClass::Provider}) {
        if (!map.feasible(r.source, cls)) continue;
        if (!classes.empty()) classes += ", ";
        classes += bgp::to_string(cls);
        classes += " (>= " +
                   std::to_string(map.feasible_length(r.source, cls)) +
                   " hops)";
      }
      if (!classes.empty()) d.note("admissible classes: " + classes);
      continue;
    }

    // Avoid query: static Table 5.2 prediction per export policy, plus the
    // graph-level feasibility bound from the poisoned fixpoint.
    const std::vector<NodeId> default_path = map.path_of(r.source);
    const std::string question = pair + " avoiding " + as_str(graph, r.avoid);
    if (std::find(default_path.begin(), default_path.end(), r.avoid) ==
        default_path.end()) {
      report
          .add(Severity::Note, "verify.query.avoid",
               question + ": the default path already avoids it")
          .at(label)
          .note("default path: " + path_str(graph, default_path));
      continue;
    }
    const bool feasible =
        engine.solve_avoiding(r.destination, r.avoid).reachable(r.source);
    bool any_success = false;
    std::vector<std::string> verdicts;
    std::vector<NodeId> witness;
    for (const core::ExportPolicy policy : core::kAllPolicies) {
      const SymbolicRouteEngine::AvoidPrediction prediction =
          engine.predict_avoid(map, r.source, r.avoid, policy);
      std::string line = std::string(core::to_string(policy)) + ": " +
                         (prediction.success
                              ? (prediction.bgp_success ? "avoided by plain BGP"
                                                        : "avoided by MIRO")
                              : "not avoidable");
      if (prediction.success && witness.empty()) witness = prediction.witness;
      any_success |= prediction.success;
      verdicts.push_back(std::move(line));
    }
    Diagnostic& d =
        any_success
            ? report
                  .add(Severity::Note, "verify.query.avoid",
                       question + ": avoidable")
                  .at(label)
            : report
                  .add(Severity::Error,
                       feasible ? "verify.query.avoid-failed"
                                : "verify.query.avoid-infeasible",
                       question +
                           (feasible
                                ? ": the negotiation procedure fails under "
                                  "every export policy (a clean path exists "
                                  "but is never offered)"
                                : ": no path at all avoids it"))
                  .at(label);
    for (std::string& line : verdicts) d.note(std::move(line));
    if (!witness.empty()) d.note("witness: " + path_str(graph, witness));
  }

  if (options.differential) {
    DifferentialOptions diff = options.diff;
    diff.engine = options.engine;
    report.merge(differential_check(graph, diff, label).report);
  }
  report.sort();
  return report;
}

Report check_negotiation_admissibility(const policy::BgpConfig& requester,
                                       std::string_view requester_file,
                                       const policy::BgpConfig& responder,
                                       std::string_view responder_file) {
  Report report;
  if (requester.negotiations.empty()) {
    report
        .add(Severity::Note, "verify.admit.none",
             "requester configuration defines no negotiations")
        .at(requester_file);
    return report;
  }

  for (const auto& [name, spec] : requester.negotiations) {
    const std::string who = "negotiation '" + name + "'";

    // The request pattern must be satisfiable at all before anything the
    // responder does matters.
    if (spec.target_path_regex.has_value() &&
        spec.target_path_regex->language_empty()) {
      report
          .add(Severity::Error, "verify.admit.empty-request",
               who + " can never start: its path pattern '" +
                   spec.target_path_regex->pattern() +
                   "' matches no AS path")
          .at(requester_file, spec.target_path_line)
          .fix("relax the match all path pattern");
      continue;
    }

    if (!responder.responder.has_value()) {
      report
          .add(Severity::Error, "verify.admit.no-responder",
               who + " is never admitted: the responder configuration has "
                     "no accept negotiation block")
          .at(responder_file)
          .fix("add an accept negotiation statement");
      continue;
    }
    const policy::ResponderSpec& accept = *responder.responder;

    // Admission and pricing use the rules the responding agent enforces
    // (ResponderSpec::trusts, has_room and price_for).
    if (!requester.local_as.has_value()) {
      if (!accept.accept_any) {
        report
            .add(Severity::Warning, "verify.admit.unknown-asn",
                 who + ": requester has no router bgp statement, so the "
                       "responder's accept list cannot be checked")
            .at(requester_file);
      }
    } else if (!accept.trusts(*requester.local_as)) {
      report
          .add(Severity::Error, "verify.admit.rejected-asn",
               who + " is rejected: AS " +
                   std::to_string(*requester.local_as) +
                   " is not on the responder's accept list")
          .at(responder_file)
          .fix("add the requester to accept negotiation from as ...");
      continue;
    }

    if (!accept.has_room(0)) {
      report
          .add(Severity::Error, "verify.admit.no-budget",
               who + " is admitted but can never establish: the responder's "
                     "tunnel budget is zero")
          .at(responder_file, accept.when_line)
          .fix("raise when tunnel_number < ...")
          .note("when tunnel_number < 0 admits no tunnel at all");
      continue;
    }

    // Automaton product: can any AS path match the request pattern *and*
    // survive the responder's outbound route map toward the requester?
    bool filtered = false;
    if (spec.target_path_regex.has_value() && requester.local_as.has_value()) {
      const policy::NeighborBinding* binding = nullptr;
      for (const policy::NeighborBinding& neighbor : responder.neighbors) {
        if (neighbor.remote_as.has_value() &&
            *neighbor.remote_as == *requester.local_as &&
            neighbor.route_map_out.has_value())
          binding = &neighbor;
      }
      if (binding != nullptr) {
        bool exportable = false;
        bool any_permit_clause = false;
        for (const policy::RouteMapClause* clause :
             responder.route_map(*binding->route_map_out)) {
          if (!clause->permit) continue;
          any_permit_clause = true;
          if (!clause->match_as_path_acl.has_value()) {
            exportable = true;  // a bare permit clause passes everything
            break;
          }
          const policy::AsPathAccessList* acl =
              responder.access_list(*clause->match_as_path_acl);
          if (acl == nullptr) {
            exportable = true;  // undefined acl: layer 1's finding, not ours
            break;
          }
          for (const policy::AsPathAccessList::Entry& entry : acl->entries) {
            if (!entry.permit) continue;  // denies only shrink the language
            if (!spec.target_path_regex->intersection_empty(entry.regex)) {
              exportable = true;
              break;
            }
          }
          if (exportable) break;
        }
        if (!exportable) {
          filtered = true;
          report
              .add(Severity::Error, "verify.admit.filtered",
                   who + " can never be satisfied: the responder's outbound "
                         "route-map '" +
                       *binding->route_map_out +
                       (any_permit_clause
                            ? "' shares no AS path with the request pattern '"
                            : "' permits nothing, so it cannot match '") +
                       spec.target_path_regex->pattern() + "'")
              .at(responder_file, binding->route_map_out_line)
              .fix("permit an as-path access-list overlapping the request");
        }
      }
    }
    if (filtered) continue;

    // Pricing: the cheapest alternate the responder would sell, given the
    // conventional local-preference bands, against the requester's budget.
    if (spec.max_cost.has_value()) {
      std::optional<int> cheapest;
      for (const bgp::RouteClass cls :
           {bgp::RouteClass::Customer, bgp::RouteClass::Peer,
            bgp::RouteClass::Provider}) {
        const std::optional<int> price =
            accept.price_for(bgp::conventional_local_pref(cls));
        if (price && (!cheapest || *price < *cheapest)) cheapest = price;
      }
      if (cheapest.has_value() && *cheapest > *spec.max_cost) {
        report
            .add(Severity::Error, "verify.admit.too-expensive",
                 who + " can never settle: every alternate the responder "
                       "sells costs at least " +
                     std::to_string(*cheapest) +
                     ", but the requester pays at most " +
                     std::to_string(*spec.max_cost))
            .at(requester_file, spec.line)
            .fix("raise start negotiation with maximum cost or lower the "
                 "responder's tunnel_cost filters");
        continue;
      }
    }

    report
        .add(Severity::Note, "verify.admit.ok",
             who + " is admissible under the responder's configuration")
        .at(requester_file, spec.line);
  }
  report.sort();
  return report;
}

}  // namespace miro::analysis
