// Structured event tracing for the MIRO control plane.
//
// Diagnosing a failed negotiation or a flapping tunnel from scattered
// counters means stepping through the scheduler by hand; the evaluation
// chapter's numbers (negotiation counts, message overhead, soft-state
// tables) are likewise per-event measurements. This layer records typed,
// sim-timestamped events — negotiation phase transitions, retransmissions,
// tunnel mint/confirm/teardown/failover, keep-alive loss, bus
// send/deliver/drop with reason, BGP RIB changes, scheduler timer
// fire/cancel — into a fixed-capacity ring buffer with pluggable sinks.
//
// Zero cost when disabled: every instrumented component holds a nullable
// `TraceRecorder*` (null by default) and guards each emission with a single
// branch. A TraceEvent is a flat POD — no strings are formatted and nothing
// is allocated unless a recorder is attached; `detail` only ever points at
// a string literal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace miro::obs {

/// Simulated time, mirroring sim::Time (obs sits below netsim in the
/// dependency order, so the alias is repeated rather than included).
using Time = std::uint64_t;

enum class EventType : std::uint8_t {
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
  // ---- RIB monitoring (obs/ribmon over bgp/session_bgp) ----
  // Rendered forms of RibEventRecord for the Chrome-trace per-AS instant
  // tracks; `value` carries the record id so a track entry cross-references
  // the provenance JSONL stream.
  RibRootCause,           ///< detail = churn-event kind / "start"
  RibAnnounce,
  RibImplicitWithdraw,
  RibWithdraw,
  RibDeliver,
  RibLoss,
  RibDampingSuppress,
  RibMraiCoalesce,
  RibBestChanged,
};

/// Short stable name used by the exporters ("negotiation_requested", ...).
const char* to_string(EventType type);

/// One traced occurrence. Flat POD: recording performs no allocation and no
/// formatting. Fields that do not apply to a given type stay zero/empty.
struct TraceEvent {
  Time time = 0;                 ///< sim ticks at the observing component
  EventType type = EventType::BusSend;
  std::uint32_t actor = 0;       ///< AS / endpoint where the event happened
  std::uint32_t peer = 0;        ///< the other endpoint, when there is one
  std::uint64_t negotiation = 0; ///< negotiation id (0 = not applicable)
  std::uint64_t tunnel = 0;      ///< tunnel id (0 = not applicable)
  std::int64_t value = 0;        ///< type-specific scalar (count, attempt, …)
  const char* detail = "";       ///< static literal; never owned
};

/// Receives every recorded event, in order. Sinks are non-owning attachments
/// and must outlive the recorder (or be detached with clear_sinks()).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const TraceEvent& event) = 0;
};

/// Keeps every event in a growable vector — the queryable sink for tests
/// (unlike the recorder's ring it never overwrites history).
class MemorySink : public TraceSink {
 public:
  void on_event(const TraceEvent& event) override { events_.push_back(event); }
  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Counts events without storing them. Attached to a recorder it measures
/// volume; constructed next to a *disabled* run it proves the zero-cost
/// claim (the count stays zero because record() was never reached).
class CountingSink : public TraceSink {
 public:
  void on_event(const TraceEvent&) override { ++count_; }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

/// Streams each event as one JSON object per line (JSONL) for offline
/// analysis. All values are numeric or static literals (details are run
/// through the shared JSON escaper regardless).
///
/// Write errors (full disk, revoked path) never drop events silently: each
/// failed write is counted, ok() goes false and stays false, and the
/// destructor flushes and prints one stderr note if anything was lost —
/// callers that care about the artifact check ok() before destruction.
class JsonlFileSink : public TraceSink {
 public:
  /// Throws miro::Error when the path cannot be opened.
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;
  void on_event(const TraceEvent& event) override;
  /// Flushes buffered lines; returns stream health (false once any write
  /// or flush has failed).
  bool flush();
  bool ok() const { return failures_ == 0 && static_cast<bool>(out_); }
  std::uint64_t lines_written() const { return lines_; }
  /// Events whose serialized line could not be written.
  std::uint64_t write_failures() const { return failures_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::uint64_t lines_ = 0;
  std::uint64_t failures_ = 0;
};

/// Serializes one event as a single-line JSON object (the JSONL row format).
std::string to_json(const TraceEvent& event);

/// Fixed-capacity ring buffer of trace events with pluggable sinks.
///
/// The ring bounds memory for arbitrarily long simulations (old events are
/// overwritten); sinks see every event exactly once regardless of ring
/// wraparound, so a JSONL sink captures the full history.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = 1 << 16);

  /// Attaches a non-owning sink; it must outlive the recorder.
  void add_sink(TraceSink* sink);
  void clear_sinks() { sinks_.clear(); }

  void record(const TraceEvent& event);

  /// Every event still held by the ring, oldest first.
  std::vector<TraceEvent> snapshot() const;
  /// Ring events carrying this negotiation id, oldest first.
  std::vector<TraceEvent> for_negotiation(std::uint64_t id) const;
  /// Ring events carrying this tunnel id, oldest first.
  std::vector<TraceEvent> for_tunnel(std::uint64_t id) const;
  /// Number of ring events of one type.
  std::size_t count(EventType type) const;
  /// Number of ring events of one type observed at one actor.
  std::size_t count(EventType type, std::uint32_t actor) const;

  /// Total events ever recorded (monotonic; unaffected by ring overwrite).
  std::uint64_t events_recorded() const { return recorded_; }
  /// Events overwritten by ring wraparound and no longer in snapshot();
  /// sinks saw them anyway. Exactly events_recorded() - live ring entries.
  std::uint64_t events_dropped() const { return recorded_ - live_; }
  std::size_t capacity() const { return ring_.size(); }

 private:
  template <typename Predicate>
  std::vector<TraceEvent> collect(Predicate&& keep) const;

  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;       ///< next write position
  std::size_t live_ = 0;       ///< events currently held (<= capacity)
  std::uint64_t recorded_ = 0;
  std::vector<TraceSink*> sinks_;
};

// ------------------------------------------------- causal reconstruction

/// The ordered event history of one negotiation, following it across the
/// requester/responder handshake and into the lifetime of the tunnel it
/// established (tunnel-scoped events are joined in via the tunnel id).
struct NegotiationTimeline {
  std::uint64_t negotiation_id = 0;
  std::uint64_t tunnel_id = 0;  ///< 0 until a confirm bound one
  std::vector<TraceEvent> events;
  std::size_t retransmits = 0;
  bool established = false;
  bool failed = false;

  /// Compact arrow-form story, consecutive repeats collapsed:
  /// "requested → retransmit ×2 → offers_received → accept_sent →
  ///  established".
  std::string summary() const;
};

/// Rebuilds the causal history of `negotiation_id` from the recorder's ring.
NegotiationTimeline reconstruct_negotiation(const TraceRecorder& recorder,
                                            std::uint64_t negotiation_id);

}  // namespace miro::obs
