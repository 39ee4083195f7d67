#include "policy/policy_config.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace miro::policy {

bool AsPathAccessList::permits(
    const std::vector<topo::AsNumber>& as_path) const {
  for (const Entry& entry : entries)
    if (entry.regex.matches(as_path)) return entry.permit;
  return false;  // implicit deny
}

bool ResponderSpec::trusts(topo::AsNumber requester) const {
  return accept_any || std::find(accept_asns.begin(), accept_asns.end(),
                                 requester) != accept_asns.end();
}

bool ResponderSpec::has_room(std::size_t active_tunnels) const {
  return !max_tunnels || active_tunnels < *max_tunnels;
}

std::optional<int> ResponderSpec::price_for(int local_pref) const {
  for (const Filter& filter : filters)
    if (local_pref > filter.local_pref_greater) return filter.tunnel_cost;
  return std::nullopt;
}

std::vector<const RouteMapClause*> BgpConfig::route_map(
    std::string_view name) const {
  std::vector<const RouteMapClause*> clauses;
  for (const RouteMapClause& clause : route_maps)
    if (clause.name == name) clauses.push_back(&clause);
  std::sort(clauses.begin(), clauses.end(),
            [](const RouteMapClause* a, const RouteMapClause* b) {
              return a->sequence < b->sequence;
            });
  return clauses;
}

const AsPathAccessList* BgpConfig::access_list(int id) const {
  auto it = access_lists.find(id);
  return it == access_lists.end() ? nullptr : &it->second;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  BgpConfig parse() {
    std::size_t line_number = 0;
    for (std::string_view raw : split(text_, '\n')) {
      ++line_number;
      line_number_ = line_number;
      std::string_view line = trim(raw);
      if (line.empty() || line.front() == '!' || line.front() == '#')
        continue;
      parse_statement(split_whitespace(line));
    }
    return std::move(config_);
  }

 private:
  enum class Context { None, RouteMap, Negotiation, Responder, Filter };

  [[noreturn]] void fail(std::string_view why) const {
    throw Error("policy config: line " + std::to_string(line_number_) + ": " +
                std::string(why));
  }

  topo::AsNumber parse_asn(std::string_view token) const {
    auto value = parse_u64(token);
    if (!value || *value > 0xffffffffULL) fail("malformed AS number");
    return static_cast<topo::AsNumber>(*value);
  }

  int parse_int(std::string_view token) const {
    auto value = parse_i64(token);
    if (!value) fail("malformed integer");
    return static_cast<int>(*value);
  }

  void parse_statement(const std::vector<std::string_view>& words) {
    if (words.empty()) return;
    const std::string_view head = words[0];
    if (head == "router") {
      if (words.size() != 3 || words[1] != "bgp") fail("expected 'router bgp <asn>'");
      if (config_.local_as) fail("duplicate 'router bgp' statement");
      config_.local_as = parse_asn(words[2]);
      context_ = Context::None;
    } else if (head == "neighbor") {
      parse_neighbor(words);
      context_ = Context::None;
    } else if (head == "route-map") {
      parse_route_map_header(words);
      context_ = Context::RouteMap;
    } else if (head == "ip") {
      parse_access_list(words);
      // `ip ...` is a top-level command: it closes any open block, so a
      // following `match`/`set` cannot silently attach to a stale block.
      context_ = Context::None;
    } else if (head == "negotiation" && words.size() >= 2 &&
               words[1] == "filter") {
      if (words.size() != 3) fail("expected 'negotiation filter <name>'");
      ensure_responder();
      context_ = Context::Filter;
    } else if (head == "negotiation") {
      if (words.size() != 2) fail("expected 'negotiation <name>'");
      NegotiationSpec spec;
      spec.name = std::string(words[1]);
      spec.line = static_cast<int>(line_number_);
      current_negotiation_ = spec.name;
      if (!config_.negotiations.emplace(spec.name, std::move(spec)).second)
        fail("duplicate negotiation block '" + current_negotiation_ + "'");
      context_ = Context::Negotiation;
    } else if (head == "accept") {
      parse_accept(words);
      context_ = Context::Responder;
    } else if (head == "match") {
      parse_match(words);
    } else if (head == "set") {
      parse_set(words);
    } else if (head == "try") {
      if (context_ != Context::RouteMap || words.size() != 3 ||
          words[1] != "negotiation")
        fail("'try negotiation <name>' only valid inside a route-map");
      config_.route_maps.back().try_negotiation = std::string(words[2]);
      config_.route_maps.back().try_negotiation_line =
          static_cast<int>(line_number_);
    } else if (head == "start") {
      parse_start(words);
    } else if (head == "when") {
      parse_when(words);
    } else if (head == "filter") {
      parse_filter(words);
    } else {
      fail("unknown statement '" + std::string(head) + "'");
    }
  }

  void parse_neighbor(const std::vector<std::string_view>& words) {
    if (words.size() < 4) fail("truncated neighbor statement");
    auto address = net::Ipv4Address::parse(words[1]);
    if (!address) fail("malformed neighbor address");
    NeighborBinding* binding = nullptr;
    for (NeighborBinding& existing : config_.neighbors)
      if (existing.address == *address) binding = &existing;
    if (binding == nullptr) {
      config_.neighbors.push_back(NeighborBinding{});
      config_.neighbors.back().address = *address;
      binding = &config_.neighbors.back();
    }
    if (words[2] == "remote-as") {
      if (words.size() != 4) fail("expected 'remote-as <asn>'");
      binding->remote_as = parse_asn(words[3]);
    } else if (words[2] == "route-map") {
      if (words.size() != 5) fail("expected 'route-map <name> in|out'");
      if (words[4] == "in") {
        binding->route_map_in = std::string(words[3]);
        binding->route_map_in_line = static_cast<int>(line_number_);
      } else if (words[4] == "out") {
        binding->route_map_out = std::string(words[3]);
        binding->route_map_out_line = static_cast<int>(line_number_);
      } else {
        fail("route-map direction must be 'in' or 'out'");
      }
    } else {
      fail("unknown neighbor attribute");
    }
  }

  void parse_route_map_header(const std::vector<std::string_view>& words) {
    if (words.size() < 3 || words.size() > 4)
      fail("expected 'route-map <name> permit|deny [<sequence>]'");
    RouteMapClause clause;
    clause.name = std::string(words[1]);
    clause.line = static_cast<int>(line_number_);
    if (words[2] == "permit") {
      clause.permit = true;
    } else if (words[2] == "deny") {
      clause.permit = false;
    } else {
      fail("route-map action must be 'permit' or 'deny'");
    }
    clause.sequence =
        words.size() >= 4 ? parse_int(words[3]) : next_sequence_;
    next_sequence_ = clause.sequence + 10;
    config_.route_maps.push_back(std::move(clause));
  }

  void parse_access_list(const std::vector<std::string_view>& words) {
    // ip as-path access-list <id> permit|deny <regex>
    if (words.size() != 6 || words[1] != "as-path" || words[2] != "access-list")
      fail("expected 'ip as-path access-list <id> permit|deny <regex>'");
    const int id = parse_int(words[3]);
    bool permit;
    if (words[4] == "permit") {
      permit = true;
    } else if (words[4] == "deny") {
      permit = false;
    } else {
      fail("access-list action must be 'permit' or 'deny'");
    }
    auto [it, inserted] = config_.access_lists.try_emplace(id);
    it->second.id = id;
    it->second.entries.push_back(AsPathAccessList::Entry{
        permit, AsPathRegex(words[5]), static_cast<int>(line_number_)});
  }

  void parse_match(const std::vector<std::string_view>& words) {
    if (context_ == Context::RouteMap) {
      RouteMapClause& clause = config_.route_maps.back();
      if (words.size() == 3 && words[1] == "as-path") {
        clause.match_as_path_acl = parse_int(words[2]);
        clause.match_as_path_line = static_cast<int>(line_number_);
      } else if (words.size() == 4 && words[1] == "empty" &&
                 words[2] == "path") {
        clause.match_empty_path_acl = parse_int(words[3]);
        clause.match_empty_path_line = static_cast<int>(line_number_);
      } else {
        fail("unsupported match inside route-map");
      }
    } else if (context_ == Context::Negotiation) {
      // match all path <regex>
      if (words.size() != 4 || words[1] != "all" || words[2] != "path")
        fail("expected 'match all path <regex>'");
      NegotiationSpec& spec = config_.negotiations.at(current_negotiation_);
      spec.target_path_regex = AsPathRegex(words[3]);
      spec.target_path_line = static_cast<int>(line_number_);
    } else {
      fail("'match' outside a route-map or negotiation block");
    }
  }

  void parse_set(const std::vector<std::string_view>& words) {
    if (context_ == Context::RouteMap) {
      if (words.size() != 3 || words[1] != "local-preference")
        fail("expected 'set local-preference <n>'");
      config_.route_maps.back().set_local_pref = parse_int(words[2]);
    } else if (context_ == Context::Filter) {
      if (words.size() != 3 || words[1] != "tunnel_cost")
        fail("expected 'set tunnel_cost <n>'");
      ResponderSpec& responder = *config_.responder;
      if (responder.filters.empty() || filter_has_cost_)
        fail("'set tunnel_cost' must follow a 'filter permit' line");
      responder.filters.back().tunnel_cost = parse_int(words[2]);
      filter_has_cost_ = true;
    } else {
      fail("'set' outside a route-map or negotiation filter");
    }
  }

  void parse_start(const std::vector<std::string_view>& words) {
    // start negotiation with maximum cost <n>
    if (context_ != Context::Negotiation)
      fail("'start negotiation' outside a negotiation block");
    if (words.size() != 6 || words[1] != "negotiation" || words[2] != "with" ||
        words[3] != "maximum" || words[4] != "cost")
      fail("expected 'start negotiation with maximum cost <n>'");
    config_.negotiations.at(current_negotiation_).max_cost =
        parse_int(words[5]);
  }

  void parse_accept(const std::vector<std::string_view>& words) {
    // accept negotiation from any | accept negotiation from as <asn>...
    if (words.size() < 4 || words[1] != "negotiation" || words[2] != "from")
      fail("expected 'accept negotiation from any|as <asn>...'");
    ensure_responder();
    ResponderSpec& responder = *config_.responder;
    if (words[3] == "any") {
      responder.accept_any = true;
    } else if (words[3] == "as") {
      responder.accept_any = false;
      for (std::size_t i = 4; i < words.size(); ++i)
        responder.accept_asns.push_back(parse_asn(words[i]));
      if (responder.accept_asns.empty()) fail("no AS numbers after 'as'");
    } else {
      fail("expected 'any' or 'as <asn>...'");
    }
  }

  void parse_when(const std::vector<std::string_view>& words) {
    // when tunnel_number < <n>
    if (context_ != Context::Responder)
      fail("'when' outside an accept-negotiation block");
    if (words.size() != 4 || words[1] != "tunnel_number" || words[2] != "<")
      fail("expected 'when tunnel_number < <n>'");
    const int bound = parse_int(words[3]);
    if (bound < 0) fail("tunnel_number bound must be non-negative");
    config_.responder->max_tunnels = static_cast<std::size_t>(bound);
    config_.responder->when_line = static_cast<int>(line_number_);
  }

  void parse_filter(const std::vector<std::string_view>& words) {
    // filter permit local_pref > <n>
    if (context_ != Context::Filter)
      fail("'filter' outside a negotiation filter block");
    if (words.size() != 5 || words[1] != "permit" ||
        words[2] != "local_pref" || words[3] != ">")
      fail("expected 'filter permit local_pref > <n>'");
    config_.responder->filters.push_back(ResponderSpec::Filter{
        parse_int(words[4]), 0, static_cast<int>(line_number_)});
    filter_has_cost_ = false;
  }

  void ensure_responder() {
    if (!config_.responder) config_.responder = ResponderSpec{};
  }

  std::string_view text_;
  BgpConfig config_;
  Context context_ = Context::None;
  std::string current_negotiation_;
  std::size_t line_number_ = 0;
  int next_sequence_ = 10;
  bool filter_has_cost_ = true;
};

}  // namespace

BgpConfig parse_config(std::string_view text) { return Parser(text).parse(); }

}  // namespace miro::policy
