// Automatic tunnel teardown on routing changes (Section 4.3).
//
// "A tunnel remains active until one AS tears it down ... AS A will tear
// down the tunnel if the path AB changes (e.g., if the path to B now
// traverses through E) or fails, and AS B will tear down the tunnel if the
// path BCF to the destination prefix fails. The ASes can observe these
// changes in the BGP update messages or session failures."
//
// The monitor holds the facts each tunnel depends on — the upstream's route
// to the responder (the carrier) and the first-hop-onward route the bound
// path rides on — and, fed with route-change events (typically wired to
// SessionedBgpNetwork observers), reports which tunnels must be destroyed.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "core/tunnel.hpp"
#include "obs/event_log.hpp"

namespace miro::core {

class TunnelMonitor {
 public:
  struct WatchedTunnel {
    TunnelId id = 0;
    NodeId upstream = topo::kInvalidNode;
    NodeId responder = topo::kInvalidNode;
    NodeId destination = topo::kInvalidNode;
    /// The negotiated path beyond the responder: responder..destination.
    std::vector<NodeId> bound_path;
    /// The property the tunnel was negotiated for: if the carrier or the
    /// bound route starts traversing this AS, the tunnel is pointless.
    std::optional<NodeId> must_avoid;
    /// When true, any deviation of the downstream default route from the
    /// negotiated bound path tears the tunnel down (re-negotiate); when
    /// false only unreachability or a must_avoid violation does.
    bool strict_binding = false;
  };

  void watch(WatchedTunnel tunnel) {
    record(obs::EventKind::TunnelWatched, tunnel, "");
    watched_.push_back(std::move(tunnel));
  }

  /// Stops watching (e.g., after an active teardown). Returns true when the
  /// tunnel was watched.
  bool unwatch(NodeId responder, TunnelId id);

  /// Control-plane liveness hook: the upstream side failed the tunnel over
  /// (MiroAgent's keep-alive miss threshold, see TunnelLostEvent). Stops
  /// watching and returns the record — it carries everything a caller needs
  /// (destination, must_avoid) to steer the replacement negotiation.
  std::optional<WatchedTunnel> on_tunnel_lost(NodeId responder, TunnelId id);

  std::size_t watched_count() const { return watched_.size(); }

  /// Read-only view of everything currently watched, in watch order. The
  /// churn invariant checker audits this against the live routing state
  /// (no watched tunnel may outlive its underlying route past the
  /// hold-down).
  const std::vector<WatchedTunnel>& watched() const { return watched_; }

  /// The upstream's route toward `responder` changed (prefix = responder's
  /// address space). Returns the tunnels torn down by this event.
  std::vector<WatchedTunnel> on_carrier_change(
      NodeId upstream, NodeId responder,
      const std::optional<std::vector<NodeId>>& new_path);

  /// AS `hop`'s best route toward `destination` changed; affects every
  /// watched tunnel whose bound path continues through `hop` (the AS right
  /// after the responder's exit link). Returns the tunnels torn down.
  std::vector<WatchedTunnel> on_downstream_change(
      NodeId hop, NodeId destination,
      const std::optional<std::vector<NodeId>>& new_path);

  /// Attaches (or clears, with nullptr) an event log observing
  /// watch/unwatch and route-change invalidations. The monitor has no time
  /// source of its own, so an optional `clock` (typically
  /// `[&s]{ return s.now(); }` over the simulation scheduler) stamps the
  /// events; without one they carry time 0. An invalidation's causal parent
  /// is the log's ambient cause — the BGP route change that killed the
  /// tunnel when the monitor is fed from SessionedBgpNetwork's observer.
  void set_event_log(obs::EventLog* log,
                     std::function<obs::Time()> clock = {}) {
    log_ = log;
    clock_ = std::move(clock);
  }

 private:
  template <typename Predicate>
  std::vector<WatchedTunnel> tear_down_if(Predicate&& dead,
                                          const char* reason);

  void record(obs::EventKind kind, const WatchedTunnel& tunnel,
              const char* detail) {
    if (log_ == nullptr) return;
    log_->record({.time = clock_ ? clock_() : 0,
                  .kind = kind,
                  .actor = tunnel.upstream,
                  .peer = tunnel.responder,
                  .tunnel = tunnel.id,
                  .detail = detail});
  }

  std::vector<WatchedTunnel> watched_;
  obs::EventLog* log_ = nullptr;
  std::function<obs::Time()> clock_;
};

}  // namespace miro::core
