#include "dataplane/forwarding.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace miro::dataplane {

std::vector<NodeId> TraceResult::as_path() const {
  std::vector<NodeId> path;
  for (const TraceHop& hop : hops)
    if (path.empty() || path.back() != hop.as) path.push_back(hop.as);
  return path;
}

bool TraceResult::traversed(NodeId as) const {
  return std::any_of(hops.begin(), hops.end(),
                     [as](const TraceHop& hop) { return hop.as == as; });
}

std::string TraceResult::to_string(const topo::AsGraph& graph) const {
  std::string out;
  for (const TraceHop& hop : hops) {
    if (!out.empty()) out += " -> ";
    out += std::to_string(graph.as_number(hop.as));
    switch (hop.action) {
      case TraceHop::Action::Encapsulate: out += "(encap)"; break;
      case TraceHop::Action::Decapsulate: out += "(decap)"; break;
      case TraceHop::Action::Deliver: out += "(deliver)"; break;
      case TraceHop::Action::Drop: out += "(drop)"; break;
      case TraceHop::Action::Forward: break;
    }
  }
  return out;
}

AsLevelDataPlane::AsLevelDataPlane(RouteStore& store) : store_(&store) {
  const topo::AsGraph& graph = store.graph();
  for (NodeId as = 0; as < graph.node_count(); ++as) {
    const topo::AsNumber asn = graph.as_number(as);
    require(asn < 65536,
            "AsLevelDataPlane: synthetic addressing needs 16-bit ASNs");
    add_prefix(as, net::Prefix(net::Ipv4Address(
                                   static_cast<std::uint32_t>(asn) << 16),
                               16));
  }
}

void AsLevelDataPlane::add_prefix(NodeId as, const net::Prefix& prefix) {
  prefixes_.insert(prefix, as);
}

net::Ipv4Address AsLevelDataPlane::host_address(NodeId as) const {
  const topo::AsNumber asn = store_->graph().as_number(as);
  return net::Ipv4Address((static_cast<std::uint32_t>(asn) << 16) | 1);
}

std::optional<NodeId> AsLevelDataPlane::destination_as(
    net::Ipv4Address address) const {
  auto match = prefixes_.lookup(address);
  if (!match) return std::nullopt;
  return *match->value;
}

TunnelId AsLevelDataPlane::install_tunnel(const SplicedPath& spliced,
                                          MatchRule match) {
  return install_split_tunnels({spliced}, {1.0}, std::move(match)).front();
}

std::vector<TunnelId> AsLevelDataPlane::install_split_tunnels(
    const std::vector<SplicedPath>& spliced_paths,
    const std::vector<double>& weights, MatchRule match) {
  require(!spliced_paths.empty(), "install_split_tunnels: no paths");
  require(spliced_paths.size() == weights.size(),
          "install_split_tunnels: one weight per path required");
  const NodeId head = spliced_paths.front().as_path.front();
  const NodeId destination = spliced_paths.front().as_path.back();

  UpstreamEntry entry;
  std::vector<TunnelId> ids;
  for (const SplicedPath& spliced : spliced_paths) {
    require(spliced.as_path.size() >= 2,
            "install_split_tunnels: spliced path too short");
    require(spliced.offered.path.size() >= 2,
            "install_split_tunnels: offered route has no exit link");
    require(spliced.as_path.front() == head &&
                spliced.as_path.back() == destination,
            "install_split_tunnels: paths must share head and destination");
    const NodeId responder = spliced.responder;
    const TunnelId id = ++next_tunnel_id_[responder];
    // Downstream: directed forwarding onto the negotiated exit link
    // (Section 4.1's footnote: "directed forwarding" lets the egress pick a
    // non-default exit link per tunnel).
    tunnel_tables_[responder][id] = DownstreamEntry{spliced.offered.path[1]};
    entry.targets.push_back(TunnelTarget{responder, id});
    ids.push_back(id);
  }
  if (entry.targets.size() > 1) entry.splitter.emplace(weights);

  // Upstream: classify traffic for the destination into the tunnel set. By
  // default every packet toward the destination's prefix is diverted; the
  // caller can narrow the rule ("real-time traffic via BCF, best-effort via
  // BEF", Section 3.5).
  if (!match.destination_prefix) {
    const topo::AsNumber asn = store_->graph().as_number(destination);
    match.destination_prefix = net::Prefix(
        net::Ipv4Address(static_cast<std::uint32_t>(asn) << 16), 16);
  }
  classifiers_[head].add_rule(std::move(match), std::move(entry));
  return ids;
}

void AsLevelDataPlane::remove_tunnel(NodeId responder, TunnelId id) {
  auto table = tunnel_tables_.find(responder);
  if (table != tunnel_tables_.end()) table->second.erase(id);
  // Upstream classifiers referencing a dead tunnel fail closed at the
  // responder (packets are dropped there), mirroring the failure mode the
  // soft-state protocol exists to clean up. Callers normally reinstall.
}

TraceResult AsLevelDataPlane::trace(Packet packet, NodeId origin_as,
                                    std::size_t max_hops) {
  TraceResult result;
  NodeId current = origin_as;
  // The outer header's destination AS and its routing tree are looked up
  // once per header: here and after each encapsulate or decapsulate. The
  // tree is solved on the header's first plain forwarding hop.
  std::optional<NodeId> dest = destination_as(packet.outer().destination);
  const bgp::RoutingTree* tree = nullptr;
  const auto new_header = [&] {
    dest = destination_as(packet.outer().destination);
    tree = nullptr;
  };
  for (std::size_t hop = 0; hop < max_hops; ++hop) {
    if (!dest) {
      result.hops.push_back({current, TraceHop::Action::Drop, std::nullopt});
      return result;
    }

    if (*dest == current) {
      if (packet.encapsulation_depth() > 0) {
        // Tunnel endpoint: decapsulate and direct-forward by tunnel id.
        const auto tunnel_id = packet.outer().tunnel_id;
        const auto table = tunnel_tables_.find(current);
        if (!tunnel_id || table == tunnel_tables_.end() ||
            table->second.find(*tunnel_id) == table->second.end()) {
          result.hops.push_back(
              {current, TraceHop::Action::Drop, tunnel_id});
          return result;
        }
        const DownstreamEntry& entry = table->second.at(*tunnel_id);
        packet.decapsulate();
        new_header();
        result.hops.push_back(
            {current, TraceHop::Action::Decapsulate, tunnel_id});
        current = entry.exit_neighbor;
        continue;
      }
      result.hops.push_back({current, TraceHop::Action::Deliver, std::nullopt});
      result.delivered = true;
      return result;
    }

    // Tunnel-head classification: only packets not already in a tunnel are
    // considered, so transit ASes do not re-wrap in-flight tunnel traffic.
    if (packet.encapsulation_depth() == 0) {
      auto classifier = classifiers_.find(current);
      if (classifier != classifiers_.end()) {
        if (const UpstreamEntry* entry =
                classifier->second.classify(packet)) {
          // One rule may fan out over several tunnels: the flow hash picks
          // the path and keeps every packet of the flow on it.
          const TunnelTarget& target =
              entry->splitter
                  ? entry->targets[entry->splitter->path_for(packet)]
                  : entry->targets.front();
          packet.encapsulate(host_address(current),
                             host_address(target.responder),
                             target.tunnel_id);
          new_header();
          result.hops.push_back(
              {current, TraceHop::Action::Encapsulate, target.tunnel_id});
          continue;  // re-evaluate forwarding with the new outer header
        }
      }
    }

    // Plain destination-based forwarding along the stable BGP route.
    if (tree == nullptr) tree = &store_->tree(*dest);
    if (!tree->reachable(current)) {
      result.hops.push_back({current, TraceHop::Action::Drop, std::nullopt});
      return result;
    }
    result.hops.push_back({current, TraceHop::Action::Forward, std::nullopt});
    current = tree->next_hop(current);
  }
  result.hops.push_back({current, TraceHop::Action::Drop, std::nullopt});
  return result;
}

}  // namespace miro::dataplane
