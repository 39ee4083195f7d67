// Message-level BGP over the discrete-event simulator.
//
// "The BGP is an incremental protocol. When a router first connects to a
// neighbor, the entire BGP routing table is transmitted. After that route
// updates and withdrawals are sent only when the route changes." (§2.2.2)
//
// Each AS is a speaker with a per-neighbor Adj-RIB-In for one destination
// prefix. UPDATE and WITHDRAW messages travel over per-link sessions with
// propagation delay; a speaker re-selects when a message arrives and sends
// incremental updates only to neighbors whose view changed. Links can fail
// and recover at runtime — the machinery MIRO's soft-state tunnel management
// reacts to ("The ASes can observe these changes in the BGP update messages
// or session failures", §4.3). The converged result provably equals
// StableRouteSolver's under conventional policies (tested).
//
// Two graceful-degradation mechanisms defend the network against sustained
// churn (both off by default, see ChurnDefenseConfig):
//   - MRAI-style outbound coalescing: per-session minimum advertisement
//     interval; while the timer runs, newer outbound messages supersede the
//     queued one, so a rapid A->B->A flap costs zero wire messages.
//   - RFC 2439-era route flap damping at the receiver: a per-(neighbor,
//     route) penalty with exponential decay; above the suppress threshold
//     the neighbor's route is quarantined (kept in Adj-RIB-In but excluded
//     from selection and propagation) until the penalty decays below the
//     reuse threshold.
//
// Beyond link failure, the prefix origin itself can churn: the origin can
// withdraw and re-announce its prefix, and any other AS can start announcing
// the same prefix (a hijack) — the event taxonomy src/churn replays.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "bgp/path_table.hpp"
#include "bgp/route.hpp"
#include "netsim/scheduler.hpp"
#include "obs/event_log.hpp"

namespace miro::bgp {

/// Tunables for the churn-defense mechanisms. The default-constructed config
/// disables both, reproducing the classic eager-propagation behaviour.
struct ChurnDefenseConfig {
  /// Minimum advertisement interval per session, in ticks; 0 disables MRAI
  /// coalescing (every change is sent immediately).
  sim::Time mrai = 0;

  /// Enables receiver-side route flap damping with the parameters below.
  bool damping_enabled = false;
  double damping_penalty = 1000.0;    ///< added per flap (withdraw, change)
  double damping_suppress = 3000.0;   ///< suppress when penalty reaches this
  double damping_reuse = 1500.0;      ///< reuse when penalty decays to this
  double damping_ceiling = 8000.0;    ///< penalty never exceeds this
  sim::Time damping_half_life = 600;  ///< ticks for the penalty to halve
};

class SessionedBgpNetwork {
 public:
  /// Builds the speakers; nothing is announced until start(). The defense
  /// config is validated here (thresholds ordered, half-life positive).
  SessionedBgpNetwork(const AsGraph& graph, NodeId destination,
                      sim::Scheduler& scheduler,
                      ChurnDefenseConfig defense = {});

  /// The origin announces its prefix to all neighbors.
  void start();

  /// Brings a session down: both ends flush what they learned over it and
  /// withdraw/re-advertise as needed. Idempotent.
  void fail_link(NodeId a, NodeId b);
  /// Restores a failed session; both ends re-advertise their current best
  /// (the "entire table" retransmission of a fresh session).
  void restore_link(NodeId a, NodeId b);

  /// The origin stops announcing its prefix: neighbors receive withdrawals
  /// and the route drains network-wide. No-op while already withdrawn.
  void withdraw_prefix();
  /// The origin re-announces after withdraw_prefix(). No-op while announced.
  void announce_prefix();

  /// `node` starts originating the destination's prefix alongside (or, with
  /// the true origin withdrawn, instead of) the legitimate origin — the
  /// hijack-and-recover scenario. Paths learned from the hijacker end at
  /// `node` rather than at the destination.
  void start_hijack(NodeId node);
  /// The hijacker withdraws; the network reconverges to the true origin.
  void end_hijack(NodeId node);

  bool has_route(NodeId node) const { return speakers_[node].best.has_value(); }
  const Route& best(NodeId node) const;
  /// Full best path [node..origin]; empty when unreachable. During a hijack
  /// the path may end at the hijacker instead of the destination.
  std::vector<NodeId> path_of(NodeId node) const;

  /// Observer invoked (synchronously, during event processing) whenever a
  /// speaker's best route changes. Used by MIRO's tunnel monitor.
  using RouteChangeObserver =
      std::function<void(NodeId node, const std::optional<Route>& best)>;
  void set_observer(RouteChangeObserver observer) {
    observer_ = std::move(observer);
  }

  /// Observer invoked at the instant an UPDATE (path non-empty) or WITHDRAW
  /// (path empty) is actually delivered to `to` — the ground truth a shadow
  /// Adj-RIB-In (churn::InvariantChecker) reconstructs. Messages lost to a
  /// link that failed while they were in flight are not observed.
  using MessageObserver = std::function<void(
      NodeId from, NodeId to, const std::vector<NodeId>& path_at_sender)>;
  void set_message_observer(MessageObserver observer) {
    message_observer_ = std::move(observer);
  }

  /// Attaches (or clears, with nullptr) the event log that receives one
  /// RIB event per RIB-changing occurrence, each carrying its causal parent.
  /// Null by default and zero-cost when absent: every emission site guards
  /// with one branch, and logged vs unlogged runs of the same script are
  /// bit-identical in protocol behaviour (asserted in ribmon_test).
  /// Callers establishing external root causes (churn replay, tests) wrap
  /// the triggering API call in an obs::EventLog::CauseScope. The route
  /// observer runs inside the scope of the best_changed event it reports.
  void set_event_log(obs::EventLog* log) { log_ = log; }

  struct Stats {
    std::size_t updates_sent = 0;
    std::size_t withdrawals_sent = 0;
    /// Wire messages that actually arrived (the rest died with their link).
    std::size_t delivered_updates = 0;
    std::size_t delivered_withdrawals = 0;
    /// Messages lost because their link failed while they were in flight.
    std::size_t lost_in_flight = 0;
    std::size_t selections = 0;
    /// Outbound messages that never hit the wire because a newer message
    /// superseded them inside an MRAI window.
    std::size_t coalesced = 0;
    /// Inbound updates/withdrawals absorbed without propagation because the
    /// (neighbor, route) was suppressed by flap damping.
    std::size_t updates_suppressed = 0;
    /// Times a (neighbor, route) crossed the suppress threshold.
    std::size_t routes_damped = 0;
  };
  const Stats& stats() const { return stats_; }

  NodeId destination() const { return destination_; }
  const AsGraph& graph() const { return *graph_; }
  const ChurnDefenseConfig& defense() const { return defense_; }

  // --- Inspection surface (invariant checker, tests) ---------------------

  /// The Adj-RIB-In of one speaker: neighbor -> interned id of the path it
  /// last advertised (resolve through paths() or adj_in_path()).
  const std::unordered_map<NodeId, PathId>& adj_in_of(NodeId node) const {
    return speakers_[node].adj_in;
  }
  /// The path table every Adj-RIB-In id resolves against.
  const PathTable& paths() const { return paths_; }
  /// Materialized Adj-RIB-In path `from` last advertised to `node`; empty
  /// when no route is held.
  std::vector<NodeId> adj_in_path(NodeId node, NodeId from) const {
    const auto& rib = speakers_[node].adj_in;
    const auto it = rib.find(from);
    return it == rib.end() ? std::vector<NodeId>{}
                           : paths_.materialize(it->second);
  }
  /// Which neighbors currently hold (or, under MRAI, are scheduled to hold)
  /// this speaker's route.
  const std::set<NodeId>& advertised_to_of(NodeId node) const {
    return speakers_[node].advertised_to;
  }
  bool link_is_up(NodeId a, NodeId b) const { return link_up(a, b); }
  /// Currently failed links, each as an (a, b) pair with a < b.
  std::vector<std::pair<NodeId, NodeId>> failed_links() const;
  /// The ASes currently originating the prefix (the destination, unless
  /// withdrawn, plus any active hijackers).
  const std::set<NodeId>& origins() const { return origins_; }
  bool prefix_announced() const { return origins_.count(destination_) != 0; }
  bool hijack_active() const {
    return origins_.size() > (prefix_announced() ? 1u : 0u);
  }
  /// True when damping currently quarantines what `from` advertises to
  /// `node`.
  bool is_suppressed(NodeId node, NodeId from) const;
  /// The damping penalty decayed to the current simulation time; 0 when
  /// damping is disabled or the pair has no history.
  double damping_penalty_of(NodeId node, NodeId from) const;

  /// Byte footprint of all speakers' per-neighbor RIB state, computed by a
  /// deterministic capacity walk (common/memtrack.hpp conventions; the
  /// node-based sets and maps are estimates at libstdc++ overheads).
  struct RibFootprint {
    std::uint64_t routes = 0;        ///< Adj-RIB-In entries network-wide
    std::uint64_t aspath_bytes = 0;  ///< the shared interned path table
    std::uint64_t rib_bytes = 0;     ///< all speaker state incl. sessions
    double bytes_per_route() const {
      return routes == 0 ? 0.0
                         : static_cast<double>(rib_bytes) /
                               static_cast<double>(routes);
    }
  };
  RibFootprint rib_footprint() const;

  /// UPDATE/WITHDRAW copies scheduled but not yet delivered (or lost).
  std::size_t messages_in_flight() const { return messages_in_flight_; }
  /// Outbound messages currently parked behind an MRAI timer.
  std::size_t mrai_parked() const { return mrai_parked_; }
  /// (neighbor, route) pairs currently quarantined by flap damping.
  std::size_t active_suppressions() const { return active_suppressions_; }
  /// Transit-quiet: nothing in flight and nothing parked, so every
  /// speaker's Adj-RIB-In agrees with what its neighbors last exported —
  /// the precondition for the strong churn invariants (loop-freedom,
  /// solver agreement).
  bool transit_quiet() const {
    return messages_in_flight_ == 0 && mrai_parked_ == 0;
  }

 private:
  /// Per-session outbound state for MRAI coalescing.
  struct SessionOut {
    bool mrai_armed = false;  ///< timer pending; messages queue, not send
    bool has_pending = false;
    std::vector<NodeId> pending;    ///< empty = withdraw
    std::vector<NodeId> last_sent;  ///< wire truth (empty = withdrawn/none)
    /// Provenance of the parked message (the cause that last superseded),
    /// re-established when the MRAI timer finally sends it.
    obs::EventId pending_cause = 0;
    sim::Scheduler::TimerToken timer;
  };

  /// Per-(neighbor, route) flap-damping state (RFC 2439 shape).
  struct DampingState {
    double penalty = 0;
    sim::Time anchor = 0;    ///< time the penalty was last materialized
    bool suppressed = false;
    bool was_known = false;  ///< the neighbor has advertised at least once
    sim::Scheduler::TimerToken reuse_timer;
  };

  struct Speaker {
    /// Adj-RIB-In: the route each neighbor last advertised (as a path at
    /// that neighbor, before local prepend/classification), interned in the
    /// network-wide PathTable — 4 bytes per entry, and path-change checks
    /// collapse to an id compare.
    std::unordered_map<NodeId, PathId> adj_in;
    /// Adj-RIB-Out presence: which neighbors currently hold our route.
    std::set<NodeId> advertised_to;
    std::optional<Route> best;
    std::unordered_map<NodeId, SessionOut> sessions;
    std::unordered_map<NodeId, DampingState> damping;
  };

  static std::uint64_t link_key(NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  bool link_up(NodeId a, NodeId b) const {
    return failed_links_.find(link_key(a, b)) == failed_links_.end();
  }

  /// Delivers an UPDATE (path non-empty) or WITHDRAW (path empty) from
  /// `from` to `to` after the link delay. `replaces` marks an UPDATE that
  /// supersedes a path the peer already held (an implicit withdrawal — the
  /// provenance layer distinguishes it from a first announcement).
  void send(NodeId from, NodeId to, std::vector<NodeId> path_at_sender,
            bool replaces);
  /// MRAI layer in front of send(): immediate when disabled or the session
  /// timer is idle; otherwise the message parks (superseding any queued one)
  /// until the timer fires.
  void enqueue(NodeId from, NodeId to, std::vector<NodeId> path_at_sender,
               bool replaces);
  void arm_mrai(NodeId from, NodeId to);
  void receive(NodeId node, NodeId from, std::vector<NodeId> path_at_sender);
  /// Re-selects at `node`; on change, propagates updates/withdrawals.
  void reselect(NodeId node);

  /// Records one RIB event about the monitored prefix; the log must be
  /// attached.
  obs::EventId record(obs::EventKind kind, NodeId actor, NodeId peer,
                      std::size_t path_len, std::uint64_t path_hash = 0);
  /// The log's ambient cause, or 0 without a log.
  obs::EventId current_cause() const {
    return log_ != nullptr ? log_->current_cause() : 0;
  }

  /// Decays `state`'s penalty to `now` (exponential, damping_half_life).
  void decay_penalty(DampingState& state, sim::Time now) const;
  /// Books one flap against (node, from); returns true when the pair just
  /// crossed into suppression.
  bool penalize(NodeId node, NodeId from);
  void schedule_reuse(NodeId node, NodeId from);

  const AsGraph* graph_;
  NodeId destination_;
  sim::Scheduler* scheduler_;
  ChurnDefenseConfig defense_;
  std::vector<Speaker> speakers_;
  /// One table for every speaker's Adj-RIB-In: learned paths toward the one
  /// destination share suffixes heavily, so the table stays near graph size
  /// while raw storage would grow like routes x path length.
  PathTable paths_;
  std::set<std::uint64_t> failed_links_;
  std::set<NodeId> origins_;
  RouteChangeObserver observer_;
  MessageObserver message_observer_;
  obs::EventLog* log_ = nullptr;
  Stats stats_;
  std::size_t messages_in_flight_ = 0;
  std::size_t mrai_parked_ = 0;
  std::size_t active_suppressions_ = 0;
  bool started_ = false;
};

}  // namespace miro::bgp
