#include "core/tunnel_monitor.hpp"

namespace miro::core {

bool TunnelMonitor::unwatch(NodeId responder, TunnelId id) {
  const auto before = watched_.size();
  for (const WatchedTunnel& t : watched_) {
    if (t.responder == responder && t.id == id)
      record(obs::EventKind::TunnelUnwatched, t, "teardown");
  }
  watched_.erase(std::remove_if(watched_.begin(), watched_.end(),
                                [&](const WatchedTunnel& t) {
                                  return t.responder == responder &&
                                         t.id == id;
                                }),
                 watched_.end());
  return watched_.size() != before;
}

std::optional<TunnelMonitor::WatchedTunnel> TunnelMonitor::on_tunnel_lost(
    NodeId responder, TunnelId id) {
  auto it = std::find_if(watched_.begin(), watched_.end(),
                         [&](const WatchedTunnel& t) {
                           return t.responder == responder && t.id == id;
                         });
  if (it == watched_.end()) return std::nullopt;
  WatchedTunnel lost = std::move(*it);
  watched_.erase(it);
  record(obs::EventKind::TunnelUnwatched, lost, "tunnel_lost");
  return lost;
}

template <typename Predicate>
std::vector<TunnelMonitor::WatchedTunnel> TunnelMonitor::tear_down_if(
    Predicate&& dead, const char* reason) {
  std::vector<WatchedTunnel> torn;
  auto it = watched_.begin();
  while (it != watched_.end()) {
    if (dead(*it)) {
      record(obs::EventKind::TunnelInvalidated, *it, reason);
      torn.push_back(std::move(*it));
      it = watched_.erase(it);
    } else {
      ++it;
    }
  }
  return torn;
}

std::vector<TunnelMonitor::WatchedTunnel> TunnelMonitor::on_carrier_change(
    NodeId upstream, NodeId responder,
    const std::optional<std::vector<NodeId>>& new_path) {
  return tear_down_if([&](const WatchedTunnel& tunnel) {
    if (tunnel.upstream != upstream || tunnel.responder != responder)
      return false;
    if (!new_path) return true;  // the path to the responder failed
    if (tunnel.must_avoid &&
        std::find(new_path->begin(), new_path->end(), *tunnel.must_avoid) !=
            new_path->end())
      return true;  // "the path to B now traverses through E"
    return false;
  }, "carrier_change");
}

std::vector<TunnelMonitor::WatchedTunnel> TunnelMonitor::on_downstream_change(
    NodeId hop, NodeId destination,
    const std::optional<std::vector<NodeId>>& new_path) {
  return tear_down_if([&](const WatchedTunnel& tunnel) {
    if (tunnel.destination != destination) return false;
    // Only tunnels whose bound path continues through `hop` right after the
    // responder depend on this route.
    if (tunnel.bound_path.size() < 2 || tunnel.bound_path[1] != hop)
      return false;
    if (!new_path) return true;  // "the path BCF to the destination fails"
    if (tunnel.must_avoid &&
        std::find(new_path->begin(), new_path->end(), *tunnel.must_avoid) !=
            new_path->end())
      return true;
    if (tunnel.strict_binding) {
      // The negotiated suffix beyond the responder must stay intact.
      const std::vector<NodeId> expected(tunnel.bound_path.begin() + 1,
                                         tunnel.bound_path.end());
      return *new_path != expected;
    }
    return false;
  }, "downstream_change");
}

}  // namespace miro::core
