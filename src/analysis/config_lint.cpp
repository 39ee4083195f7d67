#include "analysis/config_lint.hpp"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace miro::analysis {

namespace {

using policy::AsPathAccessList;
using policy::BgpConfig;
using policy::RouteMapClause;

/// True when the access list can never permit any path: no permit entries
/// at all, or every permit entry is preceded only by denies and has an
/// empty language (first match wins, no match denies).
bool permits_nothing(const AsPathAccessList& list) {
  for (const AsPathAccessList::Entry& entry : list.entries)
    if (entry.permit && !entry.regex.language_empty()) return false;
  return true;
}

void check_acl_reference(Report& report, const BgpConfig& config,
                         std::string_view file, int id, int line,
                         std::string_view context) {
  if (config.access_list(id) != nullptr) return;
  report
      .add(Severity::Error, "policy.acl.undefined",
           std::string(context) + " references as-path access-list " +
               std::to_string(id) + ", which is never defined")
      .at(file, line)
      .fix("add 'ip as-path access-list " + std::to_string(id) +
           " permit <regex>' or fix the referenced id");
}

void lint_route_maps(Report& report, const BgpConfig& config,
                     std::string_view file) {
  // Group clauses by name, preserving first-appearance order.
  std::vector<std::string> names;
  for (const RouteMapClause& clause : config.route_maps)
    if (std::find(names.begin(), names.end(), clause.name) == names.end())
      names.push_back(clause.name);

  for (const std::string& name : names) {
    const auto clauses = config.route_map(name);  // sequence order
    // Duplicate sequence numbers: evaluation order between them is
    // definition order, which is almost never what the operator meant.
    for (std::size_t i = 1; i < clauses.size(); ++i) {
      if (clauses[i]->sequence == clauses[i - 1]->sequence) {
        report
            .add(Severity::Error, "policy.routemap.duplicate-seq",
                 "route-map '" + name + "' defines sequence " +
                     std::to_string(clauses[i]->sequence) + " twice")
            .at(file, clauses[i]->line)
            .fix("renumber one of the clauses")
            .note("previous definition on line " +
                  std::to_string(clauses[i - 1]->line));
      }
    }
    // Shadowing: an unconditional clause (no match statements) matches
    // every route, so every later sequence is unreachable.
    const RouteMapClause* shadower = nullptr;
    for (const RouteMapClause* clause : clauses) {
      if (shadower != nullptr && clause->sequence != shadower->sequence) {
        report
            .add(Severity::Error, "policy.routemap.shadowed",
                 "route-map '" + name + "' sequence " +
                     std::to_string(clause->sequence) +
                     " is unreachable: sequence " +
                     std::to_string(shadower->sequence) +
                     " matches every route")
            .at(file, clause->line)
            .fix("add a match condition to sequence " +
                 std::to_string(shadower->sequence) +
                 " or move this clause before it")
            .note("unconditional clause on line " +
                  std::to_string(shadower->line));
      }
      if (shadower == nullptr && !clause->match_as_path_acl &&
          !clause->match_empty_path_acl) {
        shadower = clause;
      }
    }
    // A `match as-path` against a list that permits nothing can never fire.
    for (const RouteMapClause* clause : clauses) {
      if (!clause->match_as_path_acl) continue;
      const AsPathAccessList* list =
          config.access_list(*clause->match_as_path_acl);
      if (list != nullptr && permits_nothing(*list)) {
        report
            .add(Severity::Warning, "policy.routemap.never-matches",
                 "route-map '" + name + "' sequence " +
                     std::to_string(clause->sequence) +
                     " can never match: access-list " +
                     std::to_string(*clause->match_as_path_acl) +
                     " permits no path")
            .at(file, clause->match_as_path_line)
            .fix("add a permit entry to the access list or drop the clause");
      }
    }
  }

  // References into other tables.
  for (const RouteMapClause& clause : config.route_maps) {
    if (clause.match_as_path_acl)
      check_acl_reference(report, config, file, *clause.match_as_path_acl,
                          clause.match_as_path_line,
                          "'match as-path' in route-map '" + clause.name + "'");
    if (clause.match_empty_path_acl)
      check_acl_reference(report, config, file, *clause.match_empty_path_acl,
                          clause.match_empty_path_line,
                          "'match empty path' in route-map '" + clause.name +
                              "'");
    if (clause.try_negotiation &&
        config.negotiations.find(*clause.try_negotiation) ==
            config.negotiations.end()) {
      report
          .add(Severity::Error, "policy.negotiation.undefined",
               "route-map '" + clause.name + "' tries negotiation '" +
                   *clause.try_negotiation + "', which is never defined")
          .at(file, clause.try_negotiation_line)
          .fix("add a 'negotiation " + *clause.try_negotiation + "' block");
    }
  }

  // Route maps bound to no neighbor silently never run on any session.
  std::set<std::string> bound;
  for (const policy::NeighborBinding& n : config.neighbors) {
    if (n.route_map_in) bound.insert(*n.route_map_in);
    if (n.route_map_out) bound.insert(*n.route_map_out);
  }
  for (const std::string& name : names) {
    if (bound.count(name)) continue;
    const auto clauses = config.route_map(name);
    report
        .add(Severity::Warning, "policy.routemap.unused",
             "route-map '" + name + "' is not applied to any neighbor")
        .at(file, clauses.front()->line)
        .fix("bind it with 'neighbor <ip> route-map " + name +
             " in|out' or remove it");
  }
  for (const policy::NeighborBinding& n : config.neighbors) {
    const auto check_binding = [&](const std::optional<std::string>& name,
                                   int line, const char* direction) {
      if (!name) return;
      if (std::find(names.begin(), names.end(), *name) != names.end()) return;
      report
          .add(Severity::Error, "policy.routemap.undefined",
               std::string("neighbor applies ") + direction + " route-map '" +
                   *name + "', which is never defined")
          .at(file, line)
          .fix("define 'route-map " + *name + " permit ...'");
    };
    check_binding(n.route_map_in, n.route_map_in_line, "inbound");
    check_binding(n.route_map_out, n.route_map_out_line, "outbound");
  }
}

void lint_access_lists(Report& report, const BgpConfig& config,
                       std::string_view file) {
  std::set<int> referenced;
  for (const RouteMapClause& clause : config.route_maps) {
    if (clause.match_as_path_acl) referenced.insert(*clause.match_as_path_acl);
    if (clause.match_empty_path_acl)
      referenced.insert(*clause.match_empty_path_acl);
  }
  for (const auto& [id, list] : config.access_lists) {
    if (!referenced.count(id)) {
      report
          .add(Severity::Warning, "policy.acl.unused",
               "as-path access-list " + std::to_string(id) +
                   " is never referenced by a route-map")
          .at(file, list.entries.empty() ? 0 : list.entries.front().line)
          .fix("reference it with 'match as-path " + std::to_string(id) +
               "' or remove it");
    }
    for (const AsPathAccessList::Entry& entry : list.entries) {
      if (!entry.regex.language_empty()) continue;
      report
          .add(Severity::Error, "policy.regex.empty",
               "as-path regex '" + entry.regex.pattern() +
                   "' can never match any AS path")
          .at(file, entry.line)
          .fix("the pattern's language is empty over rendered AS paths; "
               "check for anchors that contradict required characters or a "
               "character class containing no digits");
    }
  }
}

void lint_negotiations(Report& report, const BgpConfig& config,
                       std::string_view file) {
  std::set<std::string> tried;
  for (const RouteMapClause& clause : config.route_maps)
    if (clause.try_negotiation) tried.insert(*clause.try_negotiation);
  for (const auto& [name, spec] : config.negotiations) {
    if (!tried.count(name)) {
      report
          .add(Severity::Warning, "policy.negotiation.unused",
               "negotiation '" + name +
                   "' is never started by a 'try negotiation' statement")
          .at(file, spec.line)
          .fix("reference it from a route-map or remove the block");
    }
    if (spec.target_path_regex && spec.target_path_regex->language_empty()) {
      report
          .add(Severity::Error, "policy.regex.empty",
               "negotiation '" + name + "' target regex '" +
                   spec.target_path_regex->pattern() +
                   "' can never match any AS path")
          .at(file, spec.target_path_line)
          .fix("an unmatchable 'match all path' pattern selects no targets, "
               "so the negotiation can never contact anyone");
    }
  }
}

void lint_responder(Report& report, const BgpConfig& config,
                    std::string_view file) {
  if (!config.responder) return;
  const policy::ResponderSpec& responder = *config.responder;
  if (!responder.has_room(0)) {
    report
        .add(Severity::Error, "policy.responder.never-admits",
             "'when tunnel_number < 0' can never admit a negotiation")
        .at(file, responder.when_line)
        .fix("raise the tunnel_number bound or drop the 'accept "
             "negotiation' block");
  }
  // Ordered first-match pricing: a filter whose threshold is >= an earlier
  // one can never fire (any local-pref above it also clears the earlier
  // threshold first).
  for (std::size_t j = 1; j < responder.filters.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (responder.filters[j].local_pref_greater >=
          responder.filters[i].local_pref_greater) {
        report
            .add(Severity::Warning, "policy.responder.filter-shadowed",
                 "negotiation filter with threshold local_pref > " +
                     std::to_string(responder.filters[j].local_pref_greater) +
                     " is unreachable behind the earlier threshold > " +
                     std::to_string(responder.filters[i].local_pref_greater))
            .at(file, responder.filters[j].line)
            .fix("order filters by descending threshold")
            .note("shadowing filter on line " +
                  std::to_string(responder.filters[i].line));
        break;
      }
    }
  }
}

}  // namespace

Report lint_config(const policy::BgpConfig& config, std::string_view file) {
  Report report;
  if (!config.local_as) {
    report
        .add(Severity::Note, "policy.router.missing",
             "configuration declares no 'router bgp <asn>' statement")
        .at(file, 0);
  }
  lint_route_maps(report, config, file);
  lint_access_lists(report, config, file);
  lint_negotiations(report, config, file);
  lint_responder(report, config, file);
  report.sort();
  return report;
}

}  // namespace miro::analysis
