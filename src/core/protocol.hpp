// The MIRO control-plane negotiation protocol (Figure 4.2).
//
// Message flow between a requesting AS and a responding AS:
//
//   requester                    responder
//      | -- RouteRequest  ------->  |   (destination, desired properties)
//      | <-- RouteOffers  --------  |   (policy-filtered candidates + prices)
//      | -- TunnelAccept  ------->  |   (the chosen candidate)
//      | <-- TunnelConfirm -------  |   (tunnel id / endpoint address)
//      | -- TunnelKeepAlive ... ->  |   (periodic soft-state refresh)
//      | <-- TunnelKeepAliveAck --  |   (upstream-side liveness signal)
//      | -- TunnelTeardown ------>  |   (active teardown; soft state covers
//                                        the case where this never arrives)
//
// Each AS runs one MiroAgent. The responder applies its export policy, a
// requester-supplied avoid constraint ("only give me paths without AS 312",
// Section 6.2.2), and its Chapter 6 rules (policy::ResponderSpec): the
// accept list and tunnel-count limit admit, the negotiation filters price,
// and a route no filter prices is not offered. The requester picks the best
// affordable offer. Tunnels are soft state: keep-alives refresh them and an
// expiry sweep destroys silent ones (Section 4.3).
//
// Reliability layer. The network may drop, duplicate, or reorder any of
// these messages (netsim/fault_injection.hpp), so:
//  - The requester retransmits RouteRequest and TunnelAccept with capped
//    exponential backoff plus jitter until answered; kNegotiationTimeout
//    remains the single failure backstop (the completion callback still
//    fires exactly once). TunnelTeardown, which has no acknowledgment, is
//    blindly re-sent a fixed number of times; soft-state expiry covers the
//    copies that never arrive.
//  - The responder is idempotent per (requester, negotiation id): a
//    duplicated TunnelAccept never mints a second tunnel — the cached
//    TunnelConfirm is re-sent instead.
//  - The upstream side tracks keep-alive acknowledgments; after
//    kKeepAliveMissThreshold consecutive unacknowledged keep-alives (or an
//    ack reporting the tunnel dead) the tunnel is failed over: upstream
//    state is dropped so traffic falls back to the BGP default path, the
//    tunnel-lost callback fires, and — when auto_renegotiate is on — a
//    re-negotiation starts after a hold-down delay that prevents flapping.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "core/export_policy.hpp"
#include "core/route_store.hpp"
#include "core/tunnel.hpp"
#include "netsim/message_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/event_log.hpp"
#include "policy/policy_config.hpp"

namespace miro::core {

// ---------------------------------------------------------------- messages

struct RouteRequest {
  std::uint64_t negotiation_id = 0;
  NodeId destination = topo::kInvalidNode;
  /// The neighbor of the responder through which the requester's traffic
  /// will arrive (equals the requester for adjacent negotiation); the
  /// responder evaluates export rules against this link.
  NodeId arrival_neighbor = topo::kInvalidNode;
  std::optional<NodeId> avoid;   ///< "only paths without AS X"
  std::optional<int> max_cost;   ///< requester's price ceiling
};

struct RouteOffer {
  Route route;
  int cost = 0;
};

struct RouteOffers {
  std::uint64_t negotiation_id = 0;
  std::vector<RouteOffer> offers;  ///< empty = nothing acceptable / rejected
};

struct TunnelAccept {
  std::uint64_t negotiation_id = 0;
  Route chosen;
  int cost = 0;
};

struct TunnelConfirm {
  std::uint64_t negotiation_id = 0;
  TunnelId tunnel_id = 0;
};

struct TunnelKeepAlive {
  TunnelId tunnel_id = 0;
};

/// Responder's reply to every keep-alive; `alive` is false when the tunnel
/// is unknown (expired or torn down), which lets the upstream side fail
/// over immediately instead of waiting out the miss threshold.
struct TunnelKeepAliveAck {
  TunnelId tunnel_id = 0;
  bool alive = false;
};

struct TunnelTeardown {
  TunnelId tunnel_id = 0;
};

/// Downstream-initiated negotiation (Section 3.3): the requester asks the
/// responder to *change its own default selection* toward `destination` —
/// "AS F can negotiate with AS B to switch to an alternate path that
/// traverses CF. Then, AS B can respond by agreeing to select the path BCF
/// instead of BEF, and AS B will advertise the path BCF to its customers."
struct SwitchRequest {
  std::uint64_t negotiation_id = 0;
  NodeId destination = topo::kInvalidNode;
  /// The first hop of the alternate the requester wants the responder on.
  NodeId desired_next_hop = topo::kInvalidNode;
  /// Payment offered for deviating from the responder's preferred route.
  int compensation = 0;
};

struct SwitchResponse {
  std::uint64_t negotiation_id = 0;
  bool accepted = false;
  /// The path the responder now selects (empty when declined).
  std::vector<NodeId> new_path;
};

using Message =
    std::variant<RouteRequest, RouteOffers, TunnelAccept, TunnelConfirm,
                 TunnelKeepAlive, TunnelKeepAliveAck, TunnelTeardown,
                 SwitchRequest, SwitchResponse>;

using Bus = sim::MessageBus<Message>;

// ------------------------------------------------------------------ agent

/// Responder-side configuration: the Chapter 5 export policy that decides
/// which candidates are offerable, and the Chapter 6 negotiation rules that
/// decide whom to admit and what to charge.
struct ResponderConfig {
  ExportPolicy policy = ExportPolicy::RespectExport;
  /// "accept negotiation from any when tunnel_number < 1000", and the
  /// Section 6.2.2 tariff by local preference: under
  /// bgp::conventional_local_pref, Self routes sell for 100, customer routes
  /// for 120, peer routes for 180 and provider routes for 240.
  policy::ResponderSpec rules{
      .accept_any = true,
      .accept_asns = {},
      .max_tunnels = 1000,
      .filters = {{400, 100}, {200, 120}, {100, 180}, {0, 240}}};
};

/// Timing knobs for the soft-state and reliability machinery. The keep-alive
/// and sweep periods, the retransmission backoff, the negotiation timeout and
/// the dedup retention are constants in protocol.cpp (DESIGN.md §7).
struct SoftStateConfig {
  sim::Time expiry_timeout = 350;   ///< > 3 keep-alive intervals

  // ---- retransmission (requester side) ----
  std::uint32_t max_retries = 5;   ///< per handshake message; afterwards the
                                   ///< kNegotiationTimeout backstop fires
  std::uint64_t rng_seed = 0x5eedULL;  ///< mixed with `self` per agent

  // ---- failover (upstream side) ----
  /// When true, a failed-over tunnel is re-negotiated automatically after
  /// the hold-down delay (at most one re-negotiation per
  /// (responder, destination) per hold-down window — the anti-flap guard).
  bool auto_renegotiate = false;
  sim::Time renegotiate_hold_down = 500;
};

/// Outcome delivered to the requester's completion callback.
struct NegotiationOutcome {
  bool established = false;
  NodeId responder = topo::kInvalidNode;
  TunnelId tunnel_id = 0;
  Route route;       ///< the path bound to the tunnel, as seen at responder
  int cost = 0;
  std::size_t offers_received = 0;
};

/// Delivered to the tunnel-lost callback when the upstream side fails a
/// tunnel over (traffic reverts to the BGP default path).
struct TunnelLostEvent {
  enum class Reason {
    MissedKeepAlives,  ///< kKeepAliveMissThreshold acks in a row never came
    ResponderReset,    ///< an ack reported the tunnel unknown downstream
  };
  TunnelId tunnel_id = 0;
  NodeId responder = topo::kInvalidNode;
  NodeId destination = topo::kInvalidNode;
  Reason reason = Reason::MissedKeepAlives;
  bool will_renegotiate = false;  ///< a hold-down re-negotiation is queued
};

class MiroAgent {
 public:
  /// `self` is this AS's node id; the agent attaches itself to the bus.
  MiroAgent(NodeId self, RouteStore& store, Bus& bus,
            ResponderConfig responder = {}, SoftStateConfig soft_state = {});

  using CompletionCallback = std::function<void(const NegotiationOutcome&)>;

  /// Initiates a negotiation with `responder` for alternate routes toward
  /// `destination`. `arrival_neighbor` is the responder's neighbor on this
  /// AS's default path (pass `self` when adjacent). The callback fires once,
  /// when the negotiation either establishes a tunnel or fails.
  std::uint64_t request(NodeId responder, NodeId arrival_neighbor,
                        NodeId destination, std::optional<NodeId> avoid,
                        std::optional<int> max_cost,
                        CompletionCallback on_complete);

  /// Actively tears down a tunnel this AS established as the upstream side.
  void teardown(TunnelId tunnel_id);

  /// Registers the upstream-side failover observer (replacing any previous).
  using TunnelLostCallback = std::function<void(const TunnelLostEvent&)>;
  void on_tunnel_lost(TunnelLostCallback callback) {
    on_tunnel_lost_ = std::move(callback);
  }

  /// Observes the outcome of automatic re-negotiations (optional; they
  /// complete silently otherwise).
  void on_renegotiated(CompletionCallback callback) {
    on_renegotiated_ = std::move(callback);
  }

  /// Downstream-initiated negotiation: asks `responder` to switch its own
  /// selection toward `destination` to the alternate whose first hop is
  /// `desired_next_hop`, offering `compensation`. The callback receives
  /// whether the responder agreed.
  using SwitchCallback = std::function<void(bool accepted,
                                            const std::vector<NodeId>& path)>;
  std::uint64_t request_switch(NodeId responder, NodeId destination,
                               NodeId desired_next_hop, int compensation,
                               SwitchCallback on_complete);

  /// Selections this AS has agreed to divert as a switch responder:
  /// destination -> forced next hop. An RCP would push these into the
  /// routers; the eval harness models them with a pinned re-solve.
  const std::unordered_map<NodeId, NodeId>& switched_selections() const {
    return switched_;
  }

  /// Upstream-side record of one established tunnel: enough to run the
  /// keep-alive liveness loop and to re-issue the original request when the
  /// tunnel fails over.
  struct UpstreamTunnel {
    NodeId responder = topo::kInvalidNode;
    NodeId arrival_neighbor = topo::kInvalidNode;
    NodeId destination = topo::kInvalidNode;
    std::optional<NodeId> avoid;
    std::optional<int> max_cost;
    std::uint32_t unacked_keepalives = 0;
  };

  /// Tunnels this AS maintains as the downstream (responding) side.
  const TunnelTable& tunnels() const { return tunnels_; }
  /// Tunnels this AS uses as the upstream side.
  const std::unordered_map<TunnelId, UpstreamTunnel>& upstream_tunnels()
      const {
    return upstream_;
  }

  struct Stats {
    std::size_t requests_sent = 0;
    std::size_t requests_received = 0;
    std::size_t requests_rejected = 0;  ///< admission control
    std::size_t offers_sent = 0;
    std::size_t tunnels_established = 0;
    std::size_t tunnels_expired = 0;    ///< soft-state timeouts
    std::size_t tunnels_torn_down = 0;  ///< active teardowns received
    std::size_t switches_accepted = 0;  ///< downstream-initiated diversions
    std::size_t switches_declined = 0;
    // -- reliability layer --
    std::size_t retransmissions = 0;        ///< re-sent handshake/teardowns
    std::size_t duplicates_suppressed = 0;  ///< dedup hits (both roles)
    std::size_t tunnels_failed_over = 0;    ///< upstream liveness losses
    std::size_t negotiations_abandoned = 0; ///< failed via timeout backstop
    std::size_t renegotiations = 0;         ///< automatic re-requests issued
    std::size_t stale_confirms_reclaimed = 0;  ///< unwanted confirms answered
                                               ///< with a teardown
  };
  const Stats& stats() const { return stats_; }

  /// Attaches (or clears, with nullptr) an event log observing this
  /// agent's negotiation phase transitions, retransmissions, and tunnel
  /// lifecycle. A null log costs one branch per event and allocates nothing
  /// (see obs/event_log.hpp).
  void set_event_log(obs::EventLog* log) { log_ = log; }

  /// Snapshots this agent's counters into `registry` as
  /// `<prefix>.requests_sent`, `<prefix>.retransmissions`, ... (safe to call
  /// repeatedly; values are overwritten, and nothing references the agent
  /// afterwards). Supersedes hand-rolled rendering of the Stats struct.
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "agent") const;

  NodeId self() const { return self_; }

 private:
  void on_message(sim::EndpointId from, const Message& message);
  void handle(NodeId from, const RouteRequest& request);
  void handle(NodeId from, const RouteOffers& offers);
  void handle(NodeId from, const TunnelAccept& accept);
  void handle(NodeId from, const TunnelConfirm& confirm);
  void handle(NodeId from, const TunnelKeepAlive& keepalive);
  void handle(NodeId from, const TunnelKeepAliveAck& ack);
  void handle(NodeId from, const TunnelTeardown& teardown);
  void handle(NodeId from, const SwitchRequest& request);
  void handle(NodeId from, const SwitchResponse& response);
  void schedule_keepalive(TunnelId tunnel_id);
  void schedule_sweep();

  struct PendingRequest {
    enum class Phase { AwaitingOffers, AwaitingConfirm };
    NodeId responder = topo::kInvalidNode;
    NodeId arrival_neighbor = topo::kInvalidNode;
    NodeId destination = topo::kInvalidNode;
    std::optional<NodeId> avoid;
    std::optional<int> max_cost;
    CompletionCallback on_complete;
    std::size_t offers_received = 0;
    Phase phase = Phase::AwaitingOffers;
    Route chosen;         ///< valid in AwaitingConfirm
    int chosen_cost = 0;  ///< valid in AwaitingConfirm
    std::uint32_t attempts = 0;  ///< retransmissions in the current phase
    sim::Scheduler::TimerToken retry;
    sim::Scheduler::TimerToken timeout;
  };

  /// Backoff-with-jitter delay before retransmission number `attempt`.
  sim::Time retry_delay(std::uint32_t attempt);
  /// (Re-)sends the current phase's handshake message for `id`.
  void send_handshake(std::uint64_t id);
  /// Arms the retransmission timer for `id`'s current phase.
  void arm_retry(std::uint64_t id);
  /// Finishes a pending negotiation exactly once, cancelling its timers.
  void complete(std::uint64_t id, const NegotiationOutcome& outcome);
  /// Sends a teardown plus `kTeardownRetransmits` blind copies.
  void send_teardown(NodeId responder, TunnelId tunnel_id,
                     std::uint32_t attempt);
  /// Drops the upstream tunnel (traffic reverts to the BGP default path),
  /// fires the tunnel-lost callback, and queues the hold-down renegotiation.
  void fail_over(TunnelId tunnel_id, TunnelLostEvent::Reason reason);
  /// Forgets completed-negotiation dedup records older than the retention.
  void purge_dedup(sim::Time now);
  /// Records one event stamped with the current sim time; no-op (one
  /// branch, zero allocation) when no log is attached.
  void record(obs::EventKind kind, NodeId peer, std::uint64_t negotiation = 0,
              TunnelId tunnel = 0, std::int64_t value = 0,
              const char* detail = "");

  NodeId self_;
  RouteStore* store_;
  Bus* bus_;
  ResponderConfig responder_;
  SoftStateConfig soft_state_;
  Rng rng_;              ///< backoff jitter; seeded, so runs reproduce
  TunnelTable tunnels_;  // downstream role

  std::uint64_t next_negotiation_id_ = 1;
  std::unordered_map<std::uint64_t, PendingRequest> pending_;  // requester
  std::unordered_map<std::uint64_t, SwitchCallback> pending_switches_;
  std::unordered_map<TunnelId, UpstreamTunnel> upstream_;  // upstream role
  std::unordered_map<NodeId, NodeId> switched_;    // switch-responder role

  /// Requester-side memory of successfully completed negotiations, for
  /// suppressing duplicated TunnelConfirms (vs. tearing down a live tunnel).
  struct CompletedRequest {
    NodeId responder = topo::kInvalidNode;
    TunnelId tunnel_id = 0;
    sim::Time at = 0;
  };
  std::unordered_map<std::uint64_t, CompletedRequest> completed_;

  /// Responder-side memory of minted tunnels, keyed by
  /// hash(requester, negotiation id): a duplicated TunnelAccept re-sends the
  /// cached confirm instead of creating a second tunnel.
  struct MintedTunnel {
    NodeId requester = topo::kInvalidNode;
    std::uint64_t negotiation_id = 0;
    TunnelId tunnel_id = 0;
    sim::Time at = 0;
  };
  std::unordered_map<std::uint64_t, MintedTunnel> minted_;

  /// Anti-flap guard: (responder, destination) -> earliest time the next
  /// automatic re-negotiation may start.
  std::unordered_map<std::uint64_t, sim::Time> hold_down_until_;

  TunnelLostCallback on_tunnel_lost_;
  CompletionCallback on_renegotiated_;
  Stats stats_;
  obs::EventLog* log_ = nullptr;
};

}  // namespace miro::core
