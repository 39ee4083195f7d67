#include "net/packet.hpp"

#include "common/error.hpp"
#include "common/hash.hpp"

namespace miro::net {

Packet::Packet(Ipv4Address source, Ipv4Address destination, FlowLabel flow)
    : flow_(flow) {
  headers_.push_back(IpHeader{source, destination, std::nullopt});
}

void Packet::encapsulate(Ipv4Address tunnel_source,
                         Ipv4Address tunnel_destination,
                         std::optional<TunnelId> tunnel_id) {
  headers_.push_back(IpHeader{tunnel_source, tunnel_destination, tunnel_id});
}

void Packet::decapsulate() {
  require(headers_.size() > 1, "Packet::decapsulate: not encapsulated");
  headers_.pop_back();
}

void Packet::rewrite_outer_destination(Ipv4Address destination) {
  headers_.back().destination = destination;
}

std::uint64_t Packet::flow_hash() const {
  const IpHeader& ip = inner();
  std::uint64_t h = kFnvOffset;
  h = hash_combine(h, ip.source.value());
  h = hash_combine(h, ip.destination.value());
  h = hash_combine(h, flow_.source_port);
  h = hash_combine(h, flow_.destination_port);
  h = hash_combine(h, flow_.protocol);
  return h;
}

std::string Packet::to_string() const {
  std::string out;
  for (std::size_t i = headers_.size(); i-- > 0;) {
    const IpHeader& h = headers_[i];
    out += '[';
    out += h.source.to_string();
    out += " -> ";
    out += h.destination.to_string();
    if (h.tunnel_id) out += " tid=" + std::to_string(*h.tunnel_id);
    out += "]";
  }
  return out;
}

}  // namespace miro::net
