// Message-level BGP over the discrete-event simulator.
//
// "The BGP is an incremental protocol. When a router first connects to a
// neighbor, the entire BGP routing table is transmitted. After that route
// updates and withdrawals are sent only when the route changes." (§2.2.2)
//
// Each AS is a speaker with a per-neighbor Adj-RIB-In for one destination
// prefix. UPDATE and WITHDRAW messages travel over per-link sessions with
// propagation delay; a speaker re-selects when a message arrives and sends
// incremental updates only to neighbors whose view changed.
//
// Speaker state lives in flat arrays indexed by the graph's CSR half-edge
// (topo::AsGraph::half_edge): the half-edge n->m holds what n learned from
// m, a cached preference key for that candidate, and whether n's route is
// advertised to m. Messages carry interned PathIds from the network's one
// PathTable, so delivering, storing and comparing a path never copies it,
// and per-message work allocates nothing and probes no map. Links can fail
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
#include <utility>
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
  /// A directed (node, neighbor) pair: its index in the graph's CSR
  /// (topo::AsGraph::half_edge). State "at n about m" lives under n->m.
  using HalfEdge = std::uint32_t;

  /// Builds the speakers; nothing is announced until start(). The defense
  /// config is validated here (thresholds ordered, half-life positive).
  SessionedBgpNetwork(const AsGraph& graph, NodeId destination,
                      sim::Scheduler& scheduler,
                      ChurnDefenseConfig defense = {});
  // Scheduled callbacks hold the network's address.
  SessionedBgpNetwork(const SessionedBgpNetwork&) = delete;
  SessionedBgpNetwork& operator=(const SessionedBgpNetwork&) = delete;

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

  // Every node-indexed inspector below throws miro::Error for a node id
  // outside the graph.

  bool has_route(NodeId node) const { return best_path(node) != kNullPath; }
  /// Interned best path [node..origin]; kNullPath when unreachable.
  PathId best_path(NodeId node) const {
    check_node(node);
    return best_[node];
  }
  /// Class of the best route; throws when `node` has none.
  RouteClass best_class(NodeId node) const;
  /// The best route, materialized; throws when `node` has none.
  Route best(NodeId node) const;
  /// Full best path [node..origin]; empty when unreachable. During a hijack
  /// the path may end at the hijacker instead of the destination.
  std::vector<NodeId> path_of(NodeId node) const {
    return paths_.materialize(best_path(node));
  }

  /// Observer invoked (synchronously, during event processing) whenever a
  /// speaker's best route changes; `best` is the new best path (kNullPath
  /// when the route was lost), resolvable through paths(). Used by MIRO's
  /// tunnel monitor.
  using RouteChangeObserver = std::function<void(NodeId node, PathId best)>;
  void set_observer(RouteChangeObserver observer) {
    observer_ = std::move(observer);
  }

  /// Observer invoked at the instant an UPDATE (path non-null) or WITHDRAW
  /// (kNullPath) is actually delivered: `at_receiver` is the receiver's
  /// half-edge toward the sender, `path` the sender's path — the ground
  /// truth a shadow Adj-RIB-In (churn::InvariantChecker) reconstructs.
  /// Messages lost to a link that failed while they were in flight are not
  /// observed.
  using MessageObserver =
      std::function<void(HalfEdge at_receiver, PathId path)>;
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

  /// The path table every PathId resolves against.
  const PathTable& paths() const { return paths_; }
  /// The Adj-RIB-In entry at half-edge n->m: the path m last advertised to
  /// n; kNullPath when none is held. Throws for an index outside the graph.
  PathId adj_in(HalfEdge h) const {
    check_half_edge(h);
    return sessions_[h].adj_in;
  }
  /// True when, at half-edge n->m, m currently holds (or, under MRAI, is
  /// scheduled to hold) n's route.
  bool advertised(HalfEdge h) const {
    check_half_edge(h);
    return sessions_[h].advertised;
  }
  /// True when the link under half-edge `h` is up.
  bool session_up(HalfEdge h) const {
    check_half_edge(h);
    return sessions_[h].up;
  }
  /// Materialized Adj-RIB-In path `from` last advertised to `node`; empty
  /// when no route is held or the two are not neighbors.
  std::vector<NodeId> adj_in_path(NodeId node, NodeId from) const;
  /// Currently failed links, each as an (a, b) pair with a < b, in
  /// ascending order.
  std::vector<std::pair<NodeId, NodeId>> failed_links() const;
  bool prefix_announced() const { return origin_[destination_] != 0; }
  bool hijack_active() const {
    return origin_count_ > (prefix_announced() ? 1u : 0u);
  }
  /// True when damping currently quarantines what `from` advertises to
  /// `node`.
  bool is_suppressed(NodeId node, NodeId from) const;
  /// The damping penalty decayed to the current simulation time; 0 when
  /// damping is disabled or the pair has no history.
  double damping_penalty_of(NodeId node, NodeId from) const;

  /// Byte footprint of all speakers' RIB state, computed by a deterministic
  /// capacity walk (common/memtrack.hpp conventions).
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
  /// No candidate: an empty, looping or withdrawn Adj-RIB-In entry.
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};
  static constexpr HalfEdge kNoHalfEdge = ~HalfEdge{0};

  /// Speaker state at the near end n of half-edge n->m.
  struct Session {
    /// Adj-RIB-In: the path m last advertised to n, interned in the
    /// network-wide PathTable, so path-change checks are an id compare.
    PathId adj_in = kNullPath;
    /// Preference of the candidate [n] + adj_in, packed so that a smaller
    /// key is the preferred route: class rank, then length, then m's AS
    /// number (see pack_key). kNoKey when there is no loop-free candidate.
    std::uint64_t key = kNoKey;
    /// Adj-RIB-Out presence: m currently holds n's route.
    bool advertised = false;
    bool up = true;  ///< the link is up (both halves agree)
  };

  /// Outbound MRAI state of one half-edge; kept only when MRAI is on.
  struct MraiState {
    bool armed = false;  ///< timer pending; messages queue, not send
    bool has_pending = false;
    PathId pending = kNullPath;    ///< parked message; kNullPath = withdraw
    PathId last_sent = kNullPath;  ///< wire truth (kNullPath = none)
    /// Provenance of the parked message (the cause that last superseded),
    /// re-established when the MRAI timer finally sends it.
    obs::EventId pending_cause = 0;
    sim::Scheduler::TimerToken timer;
  };

  /// Flap-damping state of what m advertises to n (RFC 2439 shape), at
  /// half-edge n->m; kept only when damping is on.
  struct DampingState {
    double penalty = 0;
    sim::Time anchor = 0;    ///< time the penalty was last materialized
    bool suppressed = false;
    bool was_known = false;  ///< the neighbor has advertised at least once
    sim::Scheduler::TimerToken reuse_timer;
  };

  void check_node(NodeId node) const {
    require(node < best_.size(),
            "SessionedBgpNetwork: node id out of range");
  }
  void check_half_edge(HalfEdge h) const {
    require(h < sessions_.size(),
            "SessionedBgpNetwork: half-edge out of range");
  }
  /// The half-edge a->b after range-checking both nodes; kNoHalfEdge when
  /// they are not neighbors.
  HalfEdge find_half_edge(NodeId a, NodeId b) const;

  /// Interns [node] + suffix as a best path of class `cls`, recording the
  /// class for receivers' preference keys.
  PathId intern_best(NodeId node, PathId suffix, RouteClass cls);
  /// The preference key of [node] + `path` learned over half-edge
  /// node->from (`link` is from's relationship to node).
  std::uint64_t pack_key(NodeId node, NodeId from, Relationship link,
                         PathId path) const;
  bool suppressed(HalfEdge h) const {
    return defense_.damping_enabled && damping_[h].suppressed;
  }

  /// Puts an UPDATE (path non-null) or WITHDRAW (kNullPath) from `from`
  /// on half-edge `h` (from->to) for delivery after the link delay.
  /// `replaces` marks an UPDATE that supersedes a path the peer already
  /// held (an implicit withdrawal — the provenance layer distinguishes it
  /// from a first announcement).
  void send(NodeId from, HalfEdge h, PathId path, bool replaces);
  /// The scheduled arrival of a message sent by send().
  void deliver(NodeId from, HalfEdge h, PathId path, obs::EventId sent_id);
  /// MRAI layer in front of send(): immediate when disabled or the session
  /// timer is idle; otherwise the message parks (superseding any queued one)
  /// until the timer fires.
  void enqueue(NodeId from, HalfEdge h, PathId path, bool replaces);
  void arm_mrai(NodeId from, HalfEdge h);
  void mrai_expired(NodeId from, HalfEdge h);
  /// `node` receives `path` over its half-edge `h` toward the sender.
  void receive(NodeId node, HalfEdge h, PathId path);
  /// Re-selects at `node`; on change, propagates updates/withdrawals.
  void reselect(NodeId node);
  /// Schedules an asynchronous reselect at `node` in the current cause.
  void reselect_later(NodeId node);

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
  /// Books one flap against half-edge `h` at `node`; returns true when the
  /// pair just crossed into suppression.
  bool penalize(NodeId node, HalfEdge h);
  void schedule_reuse(NodeId node, HalfEdge h);
  void reuse_due(NodeId node, HalfEdge h);

  const AsGraph* graph_;
  NodeId destination_;
  sim::Scheduler* scheduler_;
  ChurnDefenseConfig defense_;
  /// One table for every path in the network: learned paths toward the one
  /// destination share suffixes heavily, so the table stays near graph size
  /// while raw storage would grow like routes x path length.
  PathTable paths_;
  /// Per PathId: the route class at the path's owner.
  std::vector<RouteClass> classes_;
  std::vector<PathId> best_;           ///< per node
  std::vector<std::uint8_t> origin_;   ///< per node: originates the prefix
  std::size_t origin_count_ = 0;
  std::vector<Session> sessions_;      ///< per half-edge
  std::vector<HalfEdge> reverse_;      ///< per half-edge: m->n for n->m
  std::vector<MraiState> mrai_;        ///< per half-edge, when MRAI is on
  std::vector<DampingState> damping_;  ///< per half-edge, when damping is on
  /// Scratch for the BestChanged path hash.
  std::vector<NodeId> hash_scratch_;
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
