// The "extended route-map" policy-configuration language of Chapter 6.
//
// The dissertation extends Cisco's route-map syntax with negotiation-related
// statements (Section 6.3's example). The grammar accepted here, one
// statement per line, '!' or '#' starting a comment line:
//
//   router bgp <asn>
//   neighbor <ip> remote-as <asn>
//   neighbor <ip> route-map <name> (in|out)
//   route-map <name> (permit|deny) [<sequence>]
//     match as-path <acl-id>
//     match empty path <acl-id>          # trigger: no candidate passes acl
//     set local-preference <n>
//     try negotiation <name>
//   ip as-path access-list <id> (permit|deny) <regex>
//   negotiation <name>
//     match all path <regex>             # who to contact / what to avoid
//     start negotiation with maximum cost <n>
//   accept negotiation from (any | as <asn> [...])
//     when tunnel_number < <n>
//   negotiation filter <name>
//     filter permit local_pref > <n>
//     set tunnel_cost <n>
//
// Indentation is optional; a statement following a block header attaches to
// that block, as in the original syntax.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/address.hpp"
#include "policy/aspath_regex.hpp"

namespace miro::policy {

/// `ip as-path access-list`: ordered permit/deny regexes, first match wins;
/// no match denies (Cisco semantics).
struct AsPathAccessList {
  struct Entry {
    bool permit = true;
    AsPathRegex regex;
    int line = 0;  ///< 1-based source line of the access-list statement
  };
  int id = 0;
  std::vector<Entry> entries;

  bool permits(const std::vector<topo::AsNumber>& as_path) const;
};

/// One `route-map <name> permit|deny <seq>` clause with its match/set lines.
/// `*_line` members record the 1-based source line of the statement that set
/// the field (0 = absent) so the static analyzer can point at it.
struct RouteMapClause {
  std::string name;
  bool permit = true;
  int sequence = 10;
  std::optional<int> match_as_path_acl;
  std::optional<int> match_empty_path_acl;  ///< negotiation trigger condition
  std::optional<int> set_local_pref;
  std::optional<std::string> try_negotiation;
  int line = 0;  ///< clause header line
  int match_as_path_line = 0;
  int match_empty_path_line = 0;
  int try_negotiation_line = 0;
};

/// `negotiation <name>` block (requester side).
struct NegotiationSpec {
  std::string name;
  std::optional<AsPathRegex> target_path_regex;  ///< `match all path <re>`
  std::optional<int> max_cost;                   ///< maximum price to pay
  int line = 0;  ///< block header line
  int target_path_line = 0;
};

/// `accept negotiation` + `negotiation filter` blocks (responder side): the
/// one definition of whom a responder admits and what it charges. The MIRO
/// agent (core::MiroAgent) enforces it on every request, and the static
/// admissibility check (miro_lint verify) reasons with the same predicates.
struct ResponderSpec {
  bool accept_any = true;
  std::vector<topo::AsNumber> accept_asns;
  std::optional<std::size_t> max_tunnels;  ///< `when tunnel_number < N`
  int when_line = 0;
  struct Filter {
    int local_pref_greater = 0;
    int tunnel_cost = 0;
    int line = 0;
  };
  /// Ordered; the first filter whose threshold the route's local preference
  /// exceeds sets the price ("sell all customer routes for a lower price").
  std::vector<Filter> filters;

  /// `accept negotiation from any | as <asn>...`.
  bool trusts(topo::AsNumber requester) const;
  /// Whether `when tunnel_number < N` leaves room for one more tunnel.
  bool has_room(std::size_t active_tunnels) const;
  /// Admission: a trusted requester and room under the tunnel budget.
  bool admits(topo::AsNumber requester, std::size_t active_tunnels) const {
    return trusts(requester) && has_room(active_tunnels);
  }
  /// The price of a route with local preference `local_pref`, from the
  /// first filter it passes; nullopt when no filter permits the route (it
  /// must not be offered).
  std::optional<int> price_for(int local_pref) const;
};

struct NeighborBinding {
  net::Ipv4Address address;
  std::optional<topo::AsNumber> remote_as;
  std::optional<std::string> route_map_in;
  std::optional<std::string> route_map_out;
  int route_map_in_line = 0;
  int route_map_out_line = 0;
};

struct BgpConfig {
  std::optional<topo::AsNumber> local_as;
  std::map<int, AsPathAccessList> access_lists;
  std::vector<RouteMapClause> route_maps;  ///< ordered by (name, sequence)
  std::map<std::string, NegotiationSpec> negotiations;
  std::optional<ResponderSpec> responder;
  std::vector<NeighborBinding> neighbors;

  /// The clauses of one route map, in sequence order.
  std::vector<const RouteMapClause*> route_map(std::string_view name) const;
  const AsPathAccessList* access_list(int id) const;
};

/// Parses a configuration; throws miro::Error with the line number on any
/// malformed statement.
BgpConfig parse_config(std::string_view text);

}  // namespace miro::policy
