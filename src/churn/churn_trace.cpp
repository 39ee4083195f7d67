#include "churn/churn_trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace miro::churn {

namespace {

/// Episode-kind draw weights of the two link episodes; the prefix-flap and
/// hijack weights are ChurnTraceConfig fields.
constexpr double kLinkFlapWeight = 6.0;
constexpr double kSessionResetWeight = 2.0;
/// A few links are designated repeat offenders and draw a biased share of
/// the flaps — the regime flap damping exists for.
constexpr std::size_t kFlappyLinks = 2;

/// Order-independent pair key, matching the session layer's convention.
std::uint64_t link_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

bool is_link_event(ChurnEventKind kind) {
  return kind == ChurnEventKind::LinkDown || kind == ChurnEventKind::LinkUp ||
         kind == ChurnEventKind::SessionReset;
}

/// `value` as a whole number in [0, limit), checked before the cast (casting
/// a double outside the target type's range is undefined).
std::uint64_t whole_number(const JsonValue& value, double limit,
                           const std::string& what) {
  const double number = value.as_number();
  if (!(number >= 0 && number < limit && number == std::floor(number)))
    throw Error("ChurnTrace: bad " + what);
  return static_cast<std::uint64_t>(number);
}

NodeId node_from_json(const JsonValue& event, const char* field,
                      std::size_t index) {
  const JsonValue* value = event.get(field);
  if (value == nullptr) {
    throw Error("ChurnTrace: event " + std::to_string(index) + " misses '" +
                field + "'");
  }
  return static_cast<NodeId>(
      whole_number(*value, 0x1p32,
                   "node id in '" + std::string(field) + "' of event " +
                       std::to_string(index)));
}

}  // namespace

const char* to_string(ChurnEventKind kind) {
  switch (kind) {
    case ChurnEventKind::LinkDown: return "link_down";
    case ChurnEventKind::LinkUp: return "link_up";
    case ChurnEventKind::SessionReset: return "session_reset";
    case ChurnEventKind::PrefixWithdraw: return "prefix_withdraw";
    case ChurnEventKind::PrefixAnnounce: return "prefix_announce";
    case ChurnEventKind::HijackStart: return "hijack_start";
    case ChurnEventKind::HijackEnd: return "hijack_end";
  }
  return "unknown";
}

std::optional<ChurnEventKind> parse_churn_event_kind(std::string_view name) {
  for (const ChurnEventKind kind :
       {ChurnEventKind::LinkDown, ChurnEventKind::LinkUp,
        ChurnEventKind::SessionReset, ChurnEventKind::PrefixWithdraw,
        ChurnEventKind::PrefixAnnounce, ChurnEventKind::HijackStart,
        ChurnEventKind::HijackEnd}) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

JsonValue ChurnTrace::to_json() const {
  JsonValue doc = JsonValue::make_object();
  doc.set("schema", JsonValue::make_number(1));
  doc.set("destination", JsonValue::make_number(destination));
  doc.set("seed", JsonValue::make_number(static_cast<double>(seed)));
  JsonValue list = JsonValue::make_array();
  for (const ChurnEvent& event : events) {
    JsonValue entry = JsonValue::make_object();
    entry.set("t", JsonValue::make_number(static_cast<double>(event.time)));
    entry.set("kind", JsonValue::make_string(to_string(event.kind)));
    if (event.kind == ChurnEventKind::HijackStart ||
        event.kind == ChurnEventKind::HijackEnd) {
      entry.set("a", JsonValue::make_number(event.a));
    } else if (is_link_event(event.kind)) {
      entry.set("a", JsonValue::make_number(event.a));
      entry.set("b", JsonValue::make_number(event.b));
    }
    list.push_back(std::move(entry));
  }
  doc.set("events", std::move(list));
  return doc;
}

ChurnTrace ChurnTrace::from_json(const JsonValue& value) {
  if (!value.is_object()) throw Error("ChurnTrace: document is not an object");
  if (value.contains("schema") && value.at("schema").as_number() != 1)
    throw Error("ChurnTrace: unsupported schema version");
  ChurnTrace trace;
  trace.destination = static_cast<NodeId>(
      whole_number(value.at("destination"), 0x1p32, "destination"));
  if (value.contains("seed"))
    trace.seed = whole_number(value.at("seed"), 0x1p64, "seed");
  const JsonValue& list = value.at("events");
  if (!list.is_array()) throw Error("ChurnTrace: 'events' is not an array");
  trace.events.reserve(list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    const JsonValue& entry = list.at(i);
    ChurnEvent event;
    event.time = whole_number(entry.at("t"), 0x1p64,
                              "time of event " + std::to_string(i));
    const auto kind = parse_churn_event_kind(entry.at("kind").as_string());
    if (!kind) {
      throw Error("ChurnTrace: event " + std::to_string(i) +
                  ": unknown kind '" + entry.at("kind").as_string() + "'");
    }
    event.kind = *kind;
    if (is_link_event(event.kind)) {
      event.a = node_from_json(entry, "a", i);
      event.b = node_from_json(entry, "b", i);
    } else if (event.kind == ChurnEventKind::HijackStart ||
               event.kind == ChurnEventKind::HijackEnd) {
      event.a = node_from_json(entry, "a", i);
    }
    trace.events.push_back(event);
  }
  return trace;
}

void ChurnTrace::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("ChurnTrace::save: cannot open " + path);
  out << dump() << '\n';
  if (!out) throw Error("ChurnTrace::save: write failed for " + path);
}

ChurnTrace ChurnTrace::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("ChurnTrace::load: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

void ChurnTrace::validate(const topo::AsGraph& graph) const {
  require(destination < graph.node_count(),
          "ChurnTrace: destination out of range");
  std::set<std::uint64_t> down;       // currently failed links
  std::set<NodeId> hijackers;         // currently active hijackers
  bool announced = true;
  sim::Time previous = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChurnEvent& event = events[i];
    const auto fail = [&](const char* what) {
      throw Error("ChurnTrace: event " + std::to_string(i) + " (" +
                  to_string(event.kind) + " at t=" +
                  std::to_string(event.time) + "): " + what);
    };
    if (event.time < previous) fail("out of time order");
    previous = event.time;
    if (is_link_event(event.kind)) {
      if (event.a >= graph.node_count() || event.b >= graph.node_count())
        fail("link end out of range");
      if (!graph.has_edge(event.a, event.b)) fail("no such link");
      const std::uint64_t key = link_key(event.a, event.b);
      switch (event.kind) {
        case ChurnEventKind::LinkDown:
          if (!down.insert(key).second) fail("link already down");
          break;
        case ChurnEventKind::LinkUp:
          if (down.erase(key) == 0) fail("link is not down");
          break;
        default:  // SessionReset
          if (down.count(key) != 0) fail("cannot reset a failed link");
          break;
      }
    } else if (event.kind == ChurnEventKind::PrefixWithdraw) {
      if (!announced) fail("prefix already withdrawn");
      announced = false;
    } else if (event.kind == ChurnEventKind::PrefixAnnounce) {
      if (announced) fail("prefix already announced");
      announced = true;
    } else if (event.kind == ChurnEventKind::HijackStart) {
      if (event.a >= graph.node_count()) fail("hijacker out of range");
      if (event.a == destination) fail("destination cannot hijack itself");
      if (!hijackers.insert(event.a).second) fail("hijack already active");
    } else {  // HijackEnd
      if (hijackers.erase(event.a) == 0) fail("no such active hijack");
    }
  }
}

ChurnTrace generate_churn_trace(const topo::AsGraph& graph,
                                NodeId destination,
                                const ChurnTraceConfig& config) {
  require(destination < graph.node_count(),
          "generate_churn_trace: destination out of range");
  require(config.min_hold >= 1 && config.min_hold <= config.max_hold,
          "generate_churn_trace: need 1 <= min_hold <= max_hold");
  require(config.duration > config.max_hold,
          "generate_churn_trace: duration must exceed max_hold");

  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    for (const topo::Neighbor& nb : graph.neighbors(n)) {
      if (nb.node > n) edges.emplace_back(n, nb.node);
    }
  }

  ChurnTrace trace;
  trace.destination = destination;
  trace.seed = config.seed;
  if (edges.empty()) return trace;

  Rng rng(config.seed);

  // Designated repeat offenders soak up a biased share of the link flaps.
  std::vector<std::size_t> flappy;
  while (flappy.size() < std::min(kFlappyLinks, edges.size())) {
    const auto pick = static_cast<std::size_t>(rng.next_below(edges.size()));
    if (std::find(flappy.begin(), flappy.end(), pick) == flappy.end())
      flappy.push_back(pick);
  }

  // Per-resource "busy until": the first tick at which the resource is
  // guaranteed back in its nominal state, so overlapping episodes on the
  // same link/prefix/hijack slot are never emitted.
  std::unordered_map<std::size_t, sim::Time> link_busy;
  sim::Time prefix_busy = 0;
  sim::Time hijack_busy = 0;

  const double total_weight = kLinkFlapWeight + kSessionResetWeight +
                              config.prefix_flap_weight + config.hijack_weight;

  for (std::size_t episode = 0; episode < config.episodes; ++episode) {
    const double dice = rng.uniform() * total_weight;
    const sim::Time hold = static_cast<sim::Time>(rng.uniform_int(
        static_cast<std::int64_t>(config.min_hold),
        static_cast<std::int64_t>(config.max_hold)));
    const sim::Time latest_start = config.duration - config.max_hold - 1;
    const auto draw_start = [&] {
      return static_cast<sim::Time>(
          rng.uniform_int(0, static_cast<std::int64_t>(latest_start)));
    };
    constexpr int kAttempts = 8;  // then skip the episode
    if (dice < kLinkFlapWeight) {
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        const std::size_t edge =
            (!flappy.empty() && rng.chance(0.6))
                ? flappy[rng.next_below(flappy.size())]
                : static_cast<std::size_t>(rng.next_below(edges.size()));
        const sim::Time start = draw_start();
        const auto busy = link_busy.find(edge);
        if (busy != link_busy.end() && busy->second > start) continue;
        link_busy[edge] = start + hold + 1;
        trace.events.push_back({start, ChurnEventKind::LinkDown,
                                edges[edge].first, edges[edge].second});
        trace.events.push_back({start + hold, ChurnEventKind::LinkUp,
                                edges[edge].first, edges[edge].second});
        break;
      }
    } else if (dice < kLinkFlapWeight + kSessionResetWeight) {
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        const auto edge =
            static_cast<std::size_t>(rng.next_below(edges.size()));
        const sim::Time start = draw_start();
        const auto busy = link_busy.find(edge);
        if (busy != link_busy.end() && busy->second > start) continue;
        link_busy[edge] = std::max(link_busy[edge], start + 1);
        trace.events.push_back({start, ChurnEventKind::SessionReset,
                                edges[edge].first, edges[edge].second});
        break;
      }
    } else if (dice < kLinkFlapWeight + kSessionResetWeight +
                          config.prefix_flap_weight) {
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        const sim::Time start = draw_start();
        if (prefix_busy > start) continue;
        prefix_busy = start + hold + 1;
        trace.events.push_back({start, ChurnEventKind::PrefixWithdraw});
        trace.events.push_back({start + hold, ChurnEventKind::PrefixAnnounce});
        break;
      }
    } else {
      if (graph.node_count() < 2) continue;
      for (int attempt = 0; attempt < kAttempts; ++attempt) {
        auto hijacker =
            static_cast<NodeId>(rng.next_below(graph.node_count()));
        if (hijacker == destination) continue;
        const sim::Time start = draw_start();
        if (hijack_busy > start) continue;
        hijack_busy = start + hold + 1;
        trace.events.push_back(
            {start, ChurnEventKind::HijackStart, hijacker});
        trace.events.push_back({start + hold, ChurnEventKind::HijackEnd,
                                hijacker});
        break;
      }
    }
  }

  // Stable, so same-time events keep their generation order (and the replay
  // is therefore identical across runs and platforms).
  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const ChurnEvent& x, const ChurnEvent& y) {
                     return x.time < y.time;
                   });
  return trace;
}

ChurnTrace make_persistent_flap_trace(const topo::AsGraph& graph,
                                      NodeId destination, NodeId a, NodeId b,
                                      std::size_t flaps, sim::Time period) {
  require(graph.has_edge(a, b), "make_persistent_flap_trace: no such link");
  require(destination < graph.node_count(),
          "make_persistent_flap_trace: destination out of range");
  require(period >= 2, "make_persistent_flap_trace: period must be >= 2");
  ChurnTrace trace;
  trace.destination = destination;
  for (std::size_t i = 0; i < flaps; ++i) {
    const sim::Time start = static_cast<sim::Time>(i) * period;
    trace.events.push_back({start, ChurnEventKind::LinkDown, a, b});
    trace.events.push_back({start + period / 2, ChurnEventKind::LinkUp, a, b});
  }
  return trace;
}

}  // namespace miro::churn
