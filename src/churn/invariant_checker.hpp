// Online safety-invariant checking during churn replay.
//
// A path-vector network under churn is transiently inconsistent by design —
// stale Adj-RIB-In entries with corrective messages still in flight can form
// momentary forwarding loops, which is legitimate protocol behaviour. The
// checker therefore splits its properties in two tiers:
//
//   Weak (hold at every instant):
//     - shadow-rib: each speaker's Adj-RIB-In equals the shadow copy rebuilt
//       from the actually-delivered messages (nothing invented, nothing
//       lost) — fed by SessionedBgpNetwork's MessageObserver, one PathId
//       per half-edge, compared by id;
//     - failed-link-rib: no Adj-RIB-In entry survives over a failed link;
//     - path-wellformed: every best path starts at its owner, walks real
//       edges, and repeats no AS;
//     - tunnel-hold-down: no watched tunnel outlives the loss of its
//       underlying route past the configured hold-down.
//
//   Strong (hold whenever the network is transit-quiet — nothing in flight,
//   nothing parked behind MRAI):
//     - forwarding-loop: following best next-hops from any AS terminates;
//     - rib-export-consistency: each Adj-RIB-In entry equals what the
//       neighbor's export policy says it should currently advertise;
//     - solver-agreement: with nominal origins and no active damping
//       suppression, every best path equals StableRouteSolver's unique
//       stable answer with the failed links down (solve_without_links).
//
// Violations carry the sim time and the index of the last applied trace
// event — the witness that makes a failing seed debuggable. Checks walk the
// network's interned paths in place; a path is materialized only to
// describe a violation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/session_bgp.hpp"
#include "core/tunnel_monitor.hpp"
#include "netsim/scheduler.hpp"

namespace miro::churn {

using topo::NodeId;

struct ChurnViolation {
  std::string property;  ///< invariant name, e.g. "forwarding-loop"
  sim::Time time = 0;    ///< sim time of the failing checkpoint
  /// Index of the last trace event applied before the violation (the
  /// witness); kNoEvent when the trace had not started yet.
  std::size_t event_index = static_cast<std::size_t>(-1);
  std::string detail;    ///< human-readable specifics
};

struct CheckerStats {
  std::size_t checkpoints = 0;         ///< check() calls
  std::size_t quiet_checkpoints = 0;   ///< ... that ran the strong tier
  std::size_t solver_comparisons = 0;  ///< ... that also compared the solver
  std::size_t violations_dropped = 0;  ///< beyond kMaxViolations
};

class InvariantChecker {
 public:
  static constexpr std::size_t kNoEvent = static_cast<std::size_t>(-1);
  /// Hard cap on recorded violations — a genuinely broken run would
  /// otherwise flood every checkpoint; the drop count keeps the tally.
  static constexpr std::size_t kMaxViolations = 64;

  /// Installs itself as `network`'s message observer (claiming that slot)
  /// to maintain the shadow Adj-RIB-In. `monitor`, when given, must outlive
  /// the checker; its watched tunnels are audited against `hold_down`.
  explicit InvariantChecker(bgp::SessionedBgpNetwork& network,
                            sim::Time tunnel_hold_down = 0,
                            const core::TunnelMonitor* monitor = nullptr);

  /// The replayer is about to apply trace event `index` — recorded as the
  /// witness on subsequent violations.
  void note_event(std::size_t index) { last_event_ = index; }

  /// A session between a and b flushed (link failure or reset): the shadow
  /// RIBs forget what either end learned from the other, mirroring the
  /// speakers.
  void on_session_flush(NodeId a, NodeId b);

  /// Runs one checkpoint at sim time `now`: always the weak tier, plus the
  /// strong tier when the network is transit-quiet.
  void check(sim::Time now);

  /// End-of-replay checkpoint: additionally requires the network to be
  /// transit-quiet (a drained replay that is not quiescent is itself a
  /// violation).
  void final_check(sim::Time now);

  const std::vector<ChurnViolation>& violations() const { return violations_; }
  const CheckerStats& stats() const { return stats_; }

  /// Byte footprint of the shadow Adj-RIB-In, the path scratch and the
  /// tunnel bookkeeping (capacity walk, deterministic) — the checker
  /// mirrors every delivered path id; this makes that second copy visible
  /// in the memory account table.
  std::uint64_t memory_bytes() const;

 private:
  void add(const char* property, sim::Time now, std::string detail);
  void check_shadow(sim::Time now);
  void check_failed_link_ribs(sim::Time now);
  void check_paths(sim::Time now);
  void check_tunnels(sim::Time now);
  void check_loops(sim::Time now);
  void check_export_consistency(sim::Time now);
  void check_solver(sim::Time now);

  bgp::SessionedBgpNetwork* network_;
  const core::TunnelMonitor* monitor_;
  sim::Time hold_down_;
  /// Shadow Adj-RIB-In per half-edge n->m: the path m last delivered to n,
  /// rebuilt purely from delivered messages and session flushes.
  std::vector<bgp::PathId> shadow_;
  /// Per node: on the best path being checked (path-wellformed scratch).
  std::vector<std::uint8_t> on_path_;
  /// (responder << 32 | tunnel id) -> when its underlying route first went
  /// bad; erased on recovery.
  std::unordered_map<std::uint64_t, sim::Time> tunnel_bad_since_;
  /// Tunnels already reported, so a dead tunnel fires once, not per tick.
  std::unordered_map<std::uint64_t, bool> tunnel_reported_;
  std::vector<ChurnViolation> violations_;
  CheckerStats stats_;
  std::size_t last_event_ = kNoEvent;
};

}  // namespace miro::churn
