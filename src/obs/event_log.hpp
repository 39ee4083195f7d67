// The one causal event stream of the simulated control plane.
//
// Diagnosing a failed negotiation, a flapping tunnel or an update storm from
// scattered counters means stepping through the scheduler by hand. Every
// simulated component instead records typed, sim-timestamped events into one
// EventLog: negotiation phase transitions, retransmissions, the tunnel
// lifecycle, bus send/deliver/drop, scheduler timers, and the BMP-style RIB
// events of the sessioned BGP plane (announce, implicit withdraw, withdraw,
// delivery, in-flight loss, damping suppression, MRAI coalescing, best-route
// change).
//
// Every event carries a *causal parent id*: the event that was the ambient
// cause when it was recorded (a delivered message, a route change, an
// external root cause such as a churn-trace event or start()). Chaining
// parents explains a §4.3 BGP-driven tunnel teardown back to the link
// failure that caused it; obs/ribmon folds the chains into per-root-cause
// propagation trees.
//
// Zero cost when disabled: every instrumented component holds a nullable
// `EventLog*` (null by default) and guards each emission with one branch. An
// Event is a flat POD — nothing is formatted until export, and `detail` only
// ever points at a static string literal. Ids are assigned in the
// deterministic scheduler's execution order, so a logged run is
// byte-identical across runs and thread counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace miro::obs {

/// Simulated time, mirroring sim::Time (obs sits below netsim in the
/// dependency order, so the alias is repeated rather than included).
using Time = std::uint64_t;

/// Event id, unique within one EventLog: ids are 1-based positions in
/// EventLog::events(). 0 = "no event" (the parent of a root).
using EventId = std::uint64_t;

enum class EventKind : std::uint8_t {
  // ---- negotiation lifecycle (core/protocol) ----
  NegotiationRequested,   ///< requester issued a RouteRequest
  OffersReceived,         ///< offers arrived; value = offer count
  AcceptSent,             ///< requester chose an offer; value = cost
  NegotiationEstablished, ///< confirm arrived, tunnel live; value = cost
  NegotiationFailed,      ///< clean failure; detail = why
  Retransmit,             ///< a handshake/teardown re-send; value = attempt
  DuplicateSuppressed,    ///< idempotence hit; detail = which message
  StaleConfirmReclaimed,  ///< orphan confirm answered with a teardown
  // ---- tunnel lifecycle ----
  TunnelMinted,           ///< responder created soft state
  TunnelConfirmed,        ///< requester installed the upstream record
  KeepAliveMissed,        ///< value = consecutive unacknowledged keep-alives
  TunnelFailedOver,       ///< upstream liveness loss; detail = reason
  TunnelExpired,          ///< downstream soft-state timeout
  TunnelTeardownSent,     ///< active teardown issued; value = attempt
  TunnelTornDown,         ///< downstream processed a teardown
  RenegotiationScheduled, ///< hold-down re-request queued; value = delay
  // ---- route-change tunnel monitoring (core/tunnel_monitor) ----
  TunnelWatched,
  TunnelUnwatched,
  TunnelInvalidated,      ///< a route change killed the tunnel; detail = why
  // ---- message bus (netsim/message_bus) ----
  BusSend,
  BusDeliver,
  BusDrop,                ///< detail = link_down | faults | unattached
  BusDuplicate,           ///< fault plane doubled a message; value = copies
  // ---- scheduler (netsim/scheduler) ----
  TimerScheduled,         ///< value = absolute fire time
  TimerFired,
  TimerCancelled,         ///< observed when the cancelled event is popped
  // ---- RIB events (bgp/session_bgp) ----
  RootCause,         ///< external cause: churn-trace event, start(), API call
  Announce,          ///< UPDATE to a peer that held nothing from the sender
  ImplicitWithdraw,  ///< UPDATE replacing a path the peer already held
  Withdraw,          ///< explicit WITHDRAW on the wire
  Deliver,           ///< a wire message arrived at its receiver
  Loss,              ///< a wire message died with its failed link
  DampingSuppress,   ///< inbound absorbed by flap damping, not propagated
  MraiCoalesce,      ///< outbound elided by a newer message in an MRAI window
  BestChanged,       ///< a speaker's best route changed
};
inline constexpr std::size_t kEventKinds =
    static_cast<std::size_t>(EventKind::BestChanged) + 1;

/// Short stable name used by the exporters ("negotiation_requested",
/// "announce", ...).
const char* to_string(EventKind kind);

/// One recorded occurrence. Fields that do not apply to a kind stay zero.
struct Event {
  EventId id = 0;
  EventId parent = 0;            ///< causal parent event; 0 = root
  Time time = 0;                 ///< sim ticks at the observing component
  EventKind kind = EventKind::RootCause;
  std::uint32_t actor = 0;       ///< AS / endpoint where it happened
  std::uint32_t peer = 0;        ///< the other endpoint, when there is one
  std::uint32_t prefix = 0;      ///< destination AS of the monitored prefix
  std::uint32_t path_len = 0;    ///< AS-path length carried (0 = none)
  std::uint64_t path_hash = 0;   ///< FNV-1a of the best path (BestChanged)
  std::uint64_t negotiation = 0; ///< negotiation id (0 = not applicable)
  std::uint64_t tunnel = 0;      ///< tunnel id (0 = not applicable)
  std::int64_t value = 0;        ///< kind-specific scalar (count, attempt, …)
  const char* detail = "";       ///< static literal; never owned
};

/// Serializes one event as a single-line JSON object (the JSONL row format).
/// Zero-valued optional fields are omitted.
std::string to_json(const Event& event);

/// FNV-1a over a node-id path — the fingerprint BestChanged events carry so
/// distinct best paths can be counted without storing the paths.
std::uint64_t hash_path(const std::vector<std::uint32_t>& path);

/// The full event history plus the ambient causal context. Single-threaded,
/// like the simulation that feeds it.
class EventLog {
 public:
  /// The causal parent new events are born with; 0 when no cause is active.
  EventId current_cause() const { return cause_; }

  /// Records `event` with the next id and parent = current_cause().
  EventId record(Event event);

  /// Records an external root cause (parent forced to 0 regardless of the
  /// ambient cause) and returns its id — establish it with a CauseScope to
  /// attribute the reaction.
  EventId record_root(Time time, std::uint32_t actor, const char* detail,
                      std::uint32_t peer = 0);

  /// RAII causal context. A null log makes every operation a no-op, so
  /// instrumented code can construct one unconditionally.
  class CauseScope {
   public:
    CauseScope(EventLog* log, EventId cause) : log_(log) {
      if (log_ != nullptr) {
        previous_ = log_->cause_;
        log_->cause_ = cause;
      }
    }
    ~CauseScope() {
      if (log_ != nullptr) log_->cause_ = previous_;
    }
    CauseScope(const CauseScope&) = delete;
    CauseScope& operator=(const CauseScope&) = delete;

   private:
    EventLog* log_;
    EventId previous_ = 0;
  };

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  std::uint64_t count(EventKind kind) const {
    return by_kind_[static_cast<std::size_t>(kind)];
  }
  /// Announce + implicit-withdraw + withdraw events (wire emissions).
  std::uint64_t wire_messages() const;

  /// One JSON object per line, in id order.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<Event> events_;
  std::uint64_t by_kind_[kEventKinds] = {};
  EventId cause_ = 0;
};

/// Writes `log` as JSONL to `path`; false when the file cannot be opened or
/// a write or the final flush fails (full disk, revoked path).
bool write_jsonl_file(const std::string& path, const EventLog& log);

// ------------------------------------------------- negotiation timelines

/// The ordered event history of one negotiation, following it across the
/// requester/responder handshake and into the lifetime of the tunnel it
/// established (tunnel-scoped events are joined in via the tunnel id).
struct NegotiationTimeline {
  std::uint64_t negotiation_id = 0;
  std::uint64_t tunnel_id = 0;  ///< 0 until a confirm bound one
  std::vector<Event> events;
  std::size_t retransmits = 0;
  bool established = false;
  bool failed = false;

  /// Compact arrow-form story, consecutive repeats collapsed:
  /// "requested → retransmit ×2 → offers_received → accept_sent →
  ///  established".
  std::string summary() const;
};

/// Rebuilds the causal history of `negotiation_id` from the log.
NegotiationTimeline reconstruct_negotiation(const EventLog& log,
                                            std::uint64_t negotiation_id);

}  // namespace miro::obs
