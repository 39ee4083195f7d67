#include "obs/event_log.hpp"

#include <fstream>
#include <ostream>

#include "common/hash.hpp"
#include "common/json.hpp"

namespace miro::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::NegotiationRequested: return "negotiation_requested";
    case EventKind::OffersReceived: return "offers_received";
    case EventKind::AcceptSent: return "accept_sent";
    case EventKind::NegotiationEstablished: return "established";
    case EventKind::NegotiationFailed: return "failed";
    case EventKind::Retransmit: return "retransmit";
    case EventKind::DuplicateSuppressed: return "duplicate_suppressed";
    case EventKind::StaleConfirmReclaimed: return "stale_confirm_reclaimed";
    case EventKind::TunnelMinted: return "tunnel_minted";
    case EventKind::TunnelConfirmed: return "tunnel_confirmed";
    case EventKind::KeepAliveMissed: return "keepalive_missed";
    case EventKind::TunnelFailedOver: return "tunnel_failed_over";
    case EventKind::TunnelExpired: return "tunnel_expired";
    case EventKind::TunnelTeardownSent: return "teardown_sent";
    case EventKind::TunnelTornDown: return "tunnel_torn_down";
    case EventKind::RenegotiationScheduled: return "renegotiation_scheduled";
    case EventKind::TunnelWatched: return "tunnel_watched";
    case EventKind::TunnelUnwatched: return "tunnel_unwatched";
    case EventKind::TunnelInvalidated: return "tunnel_invalidated";
    case EventKind::BusSend: return "bus_send";
    case EventKind::BusDeliver: return "bus_deliver";
    case EventKind::BusDrop: return "bus_drop";
    case EventKind::BusDuplicate: return "bus_duplicate";
    case EventKind::TimerScheduled: return "timer_scheduled";
    case EventKind::TimerFired: return "timer_fired";
    case EventKind::TimerCancelled: return "timer_cancelled";
    case EventKind::RootCause: return "root_cause";
    case EventKind::Announce: return "announce";
    case EventKind::ImplicitWithdraw: return "implicit_withdraw";
    case EventKind::Withdraw: return "withdraw";
    case EventKind::Deliver: return "deliver";
    case EventKind::Loss: return "loss";
    case EventKind::DampingSuppress: return "damping_suppress";
    case EventKind::MraiCoalesce: return "mrai_coalesce";
    case EventKind::BestChanged: return "best_changed";
  }
  return "unknown";
}

std::string to_json(const Event& event) {
  std::string line;
  line.reserve(192);
  const auto field = [&line](const char* name, auto number) {
    line += ",\"";
    line += name;
    line += "\":";
    line += std::to_string(number);
  };
  line += "{\"id\":";
  line += std::to_string(event.id);
  if (event.parent != 0) field("parent", event.parent);
  field("t", event.time);
  line += ",\"kind\":\"";
  line += to_string(event.kind);
  line += "\"";
  field("actor", event.actor);
  if (event.peer != 0) field("peer", event.peer);
  field("prefix", event.prefix);
  if (event.path_len != 0) field("path_len", event.path_len);
  if (event.path_hash != 0) field("path_hash", event.path_hash);
  if (event.negotiation != 0) field("negotiation", event.negotiation);
  if (event.tunnel != 0) field("tunnel", event.tunnel);
  if (event.value != 0) field("value", event.value);
  if (event.detail[0] != '\0') {
    line += ",\"detail\":\"";
    line += json_escape(event.detail);
    line += "\"";
  }
  line += "}";
  return line;
}

std::uint64_t hash_path(const std::vector<std::uint32_t>& path) {
  std::uint64_t hash = kFnvOffset;
  for (const std::uint32_t node : path) hash = hash_combine(hash, node);
  // Reserve 0 for "no route" so a valid path never collides with it.
  return hash == 0 ? 1 : hash;
}

// --------------------------------------------------------------------- log

EventId EventLog::record(Event event) {
  event.id = events_.size() + 1;
  event.parent = cause_;
  ++by_kind_[static_cast<std::size_t>(event.kind)];
  events_.push_back(event);
  return event.id;
}

EventId EventLog::record_root(Time time, std::uint32_t actor,
                              const char* detail, std::uint32_t peer) {
  const CauseScope no_parent(this, 0);
  return record({.time = time,
                 .kind = EventKind::RootCause,
                 .actor = actor,
                 .peer = peer,
                 .detail = detail});
}

std::uint64_t EventLog::wire_messages() const {
  return count(EventKind::Announce) + count(EventKind::ImplicitWithdraw) +
         count(EventKind::Withdraw);
}

void EventLog::write_jsonl(std::ostream& out) const {
  for (const Event& event : events_) out << to_json(event) << '\n';
}

bool write_jsonl_file(const std::string& path, const EventLog& log) {
  std::ofstream out(path);
  if (!out) return false;
  log.write_jsonl(out);
  out.flush();
  return static_cast<bool>(out);
}

// ------------------------------------------------- negotiation timelines

std::string NegotiationTimeline::summary() const {
  std::string out;
  std::size_t streak = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ++streak;
    if (i + 1 < events.size() && events[i + 1].kind == events[i].kind)
      continue;
    if (!out.empty()) out += " → ";
    out += to_string(events[i].kind);
    if (streak > 1) {
      out += " ×";
      out += std::to_string(streak);
    }
    streak = 0;
  }
  return out;
}

NegotiationTimeline reconstruct_negotiation(const EventLog& log,
                                            std::uint64_t negotiation_id) {
  NegotiationTimeline timeline;
  timeline.negotiation_id = negotiation_id;
  // First pass: the handshake events carry the negotiation id and reveal
  // the tunnel id the negotiation bound (if it established).
  for (const Event& event : log.events()) {
    if (event.negotiation == negotiation_id && event.tunnel != 0)
      timeline.tunnel_id = event.tunnel;
  }
  // Second pass: join in the bound tunnel's own lifetime events (keep-alive
  // loss, failover, expiry, teardown), which carry only the tunnel id. The
  // log is chronological, so one ordered scan suffices.
  for (const Event& event : log.events()) {
    const bool by_negotiation = event.negotiation == negotiation_id;
    const bool by_tunnel = timeline.tunnel_id != 0 &&
                           event.negotiation == 0 &&
                           event.tunnel == timeline.tunnel_id;
    if (!by_negotiation && !by_tunnel) continue;
    timeline.events.push_back(event);
    switch (event.kind) {
      case EventKind::Retransmit: ++timeline.retransmits; break;
      case EventKind::NegotiationEstablished:
        timeline.established = true;
        break;
      case EventKind::NegotiationFailed: timeline.failed = true; break;
      default: break;
    }
  }
  return timeline;
}

}  // namespace miro::obs
