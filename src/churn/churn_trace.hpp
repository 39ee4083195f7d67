// Churn traces: the event taxonomy replayed against the sessioned BGP plane.
//
// A trace is a time-ordered script of control-plane disturbances — link
// flaps, session resets, prefix withdraw/re-announce cycles, and
// hijack-and-recover episodes (the failure modes Section 2.2.2's incremental
// protocol must absorb). Traces are plain data: generated from a seed (so a
// chaos run is reproducible bit-for-bit), or saved to / loaded from JSON so a
// failing run's exact script can be checked in and replayed forever.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "netsim/scheduler.hpp"
#include "topology/as_graph.hpp"

namespace miro::churn {

using topo::NodeId;

enum class ChurnEventKind : std::uint8_t {
  LinkDown,        ///< link (a, b) fails; sessions flush
  LinkUp,          ///< link (a, b) recovers; sessions resync
  SessionReset,    ///< link (a, b) bounces within one instant
  PrefixWithdraw,  ///< the origin stops announcing its prefix
  PrefixAnnounce,  ///< the origin re-announces
  HijackStart,     ///< AS `a` starts originating the prefix too
  HijackEnd,       ///< AS `a` withdraws its bogus origination
};

const char* to_string(ChurnEventKind kind);
/// Inverse of to_string; nullopt for an unknown name.
std::optional<ChurnEventKind> parse_churn_event_kind(std::string_view name);

struct ChurnEvent {
  sim::Time time = 0;
  ChurnEventKind kind = ChurnEventKind::LinkDown;
  /// Link end / hijacker; unused (kInvalidNode) for prefix events.
  NodeId a = topo::kInvalidNode;
  /// The other link end; link events only.
  NodeId b = topo::kInvalidNode;

  friend bool operator==(const ChurnEvent&, const ChurnEvent&) = default;
};

struct ChurnTrace {
  NodeId destination = 0;
  /// Generator seed, kept for provenance; 0 for hand-written traces.
  std::uint64_t seed = 0;
  std::vector<ChurnEvent> events;

  /// Time of the last event; 0 for an empty trace.
  sim::Time end_time() const {
    return events.empty() ? 0 : events.back().time;
  }

  JsonValue to_json() const;
  /// Parses the to_json() shape; throws miro::Error on malformed documents.
  static ChurnTrace from_json(const JsonValue& value);
  std::string dump() const { return to_json().dump(); }
  static ChurnTrace parse(std::string_view text) {
    return from_json(JsonValue::parse(text));
  }

  /// File round-trip; both throw miro::Error naming the path on I/O errors.
  void save(const std::string& path) const;
  static ChurnTrace load(const std::string& path);

  /// Structural sanity against a topology: events time-ordered, ids in
  /// range, link events name real edges, and the implied state machine is
  /// consistent (no downing a downed link, no double hijack, ...). Throws
  /// miro::Error naming the first offending event index.
  void validate(const topo::AsGraph& graph) const;
};

/// Knobs for the seeded generator. The defaults produce a mixed workload
/// dominated by link flaps, the empirically dominant churn source (the
/// link-flap and session-reset weights and the number of repeat-offender
/// links are constants in churn_trace.cpp).
struct ChurnTraceConfig {
  sim::Time duration = 20000;       ///< all events land in [0, duration)
  std::size_t episodes = 40;        ///< disturbance episodes to attempt
  sim::Time min_hold = 50;          ///< shortest down/withdrawn/hijack spell
  sim::Time max_hold = 500;         ///< longest spell
  double prefix_flap_weight = 1.0;  ///< episode-kind draw weights
  double hijack_weight = 1.0;
  std::uint64_t seed = 42;
};

/// Generates a trace from the seed. Episodes that cannot be placed without
/// violating the state machine (e.g. every link busy) are skipped, so the
/// trace may hold fewer episodes than asked. The generated trace always ends
/// clean — every link restored, prefix announced, no hijack active — so a
/// replay can compare the final converged state against StableRouteSolver.
ChurnTrace generate_churn_trace(const topo::AsGraph& graph,
                                NodeId destination,
                                const ChurnTraceConfig& config);

/// A pathological single-link flapper: `flaps` down/up cycles of link (a, b),
/// one every `period` ticks (down at k*period, up halfway through). The
/// workload the MRAI + damping defenses must pay for themselves on.
ChurnTrace make_persistent_flap_trace(const topo::AsGraph& graph,
                                      NodeId destination, NodeId a, NodeId b,
                                      std::size_t flaps, sim::Time period);

}  // namespace miro::churn
