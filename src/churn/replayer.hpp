// Deterministic churn replay over the sessioned BGP + tunnel plane.
//
// The replayer drives one SessionedBgpNetwork through a ChurnTrace on a
// private scheduler: trace events are applied from the outside at their
// scripted times (never pre-scheduled into the event queue, so the protocol's
// own timer arithmetic is undisturbed), the invariant checker runs at a
// configurable checkpoint cadence, and every burst of churn is timed from
// its first event to the first transit-quiet instant after it — the
// convergence samples the churn benches aggregate into distributions.
//
// Everything is pure simulation state driven by the trace and the seeds, so
// the same trace and config reproduce the identical result bit-for-bit.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bgp/session_bgp.hpp"
#include "churn/churn_trace.hpp"
#include "churn/invariant_checker.hpp"
#include "core/tunnel_monitor.hpp"
#include "netsim/scheduler.hpp"
#include "obs/ribmon.hpp"

namespace miro::churn {

struct ReplayConfig {
  /// MRAI / flap-damping knobs handed to the network (defaults: both off).
  bgp::ChurnDefenseConfig defense;
  /// Invariant checkpoint cadence in ticks; 0 restricts checkpoints to the
  /// final post-drain check.
  sim::Time checkpoint_interval = 200;
  /// Grace period a watched tunnel may outlive its underlying route.
  sim::Time tunnel_hold_down = 200;
  /// Tunnels to watch: wired to a TunnelMonitor fed by the route observer,
  /// and audited by the checker's hold-down invariant.
  std::vector<core::TunnelMonitor::WatchedTunnel> tunnels;
  /// Optional event log. When set, the network records one RIB event per
  /// RIB-changing occurrence, the tunnel monitor records its invalidations,
  /// and the replayer records every trace event as a root cause so
  /// reactions chain to it. Null (the default) costs nothing and leaves the
  /// replay byte-identical.
  obs::EventLog* log = nullptr;
};

/// One churn burst timed to quiescence. A burst opens at the first trace
/// event after a quiet period and absorbs every further event applied before
/// the network next goes transit-quiet.
struct ConvergenceSample {
  std::size_t first_event = 0;  ///< trace index opening the burst
  std::size_t last_event = 0;   ///< last trace index folded into it
  sim::Time start = 0;          ///< sim time of the opening event
  sim::Time settled = 0;        ///< first transit-quiet instant after it
  /// UPDATE/WITHDRAW messages put on the wire during the burst.
  std::size_t messages = 0;

  sim::Time duration() const { return settled - start; }
};

struct ReplayResult {
  bgp::SessionedBgpNetwork::Stats bgp;
  std::vector<ConvergenceSample> convergence;
  std::vector<ChurnViolation> violations;
  CheckerStats checker;
  /// Ticks from start() to the first transit-quiet instant (before any
  /// trace event fired).
  sim::Time initial_convergence = 0;
  sim::Time final_time = 0;            ///< sim time when fully drained
  std::size_t scheduler_events = 0;    ///< events fired over the replay
  std::size_t tunnels_torn = 0;        ///< monitor teardowns (route changes)
  /// Deterministic end-state footprint of the speakers' RIB state (capacity
  /// walk at drain time) and of the checker's shadow copy — the numbers
  /// behind the churn benches' bytes_per_route rows.
  bgp::SessionedBgpNetwork::RibFootprint rib;
  std::uint64_t checker_bytes = 0;

  bool ok() const { return violations.empty(); }
};

/// Replays `trace` (validated against `graph` first) and returns the full
/// accounting. Throws miro::Error on an invalid trace, a trace spanning more
/// than a million checkpoints, or a blown event budget.
ReplayResult replay_churn(const topo::AsGraph& graph, const ChurnTrace& trace,
                          const ReplayConfig& config = {});

/// One closed-accounting check: a record-stream total against the replay
/// counter it must equal. A mismatch means an emission site lost or
/// double-counted a record — the exact failure the event log's provenance
/// exists to rule out.
struct AccountingRow {
  const char* what;
  std::uint64_t records;
  std::uint64_t counter;

  bool ok() const { return records == counter; }
};

/// The closed-accounting table of a replay run with `log` attached: the
/// wire, per-tree, deliver, loss, coalesce and suppress totals against the
/// replay's BGP counters, and no orphan records. `provenance` is
/// obs::build_propagation_trees over the log's events.
std::array<AccountingRow, 7> closed_accounting(
    const ReplayResult& result, const obs::EventLog& log,
    const obs::ProvenanceSummary& provenance);

}  // namespace miro::churn
