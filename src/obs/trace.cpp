#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "common/json.hpp"

namespace miro::obs {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::NegotiationRequested: return "negotiation_requested";
    case EventType::OffersReceived: return "offers_received";
    case EventType::AcceptSent: return "accept_sent";
    case EventType::NegotiationEstablished: return "established";
    case EventType::NegotiationFailed: return "failed";
    case EventType::Retransmit: return "retransmit";
    case EventType::DuplicateSuppressed: return "duplicate_suppressed";
    case EventType::StaleConfirmReclaimed: return "stale_confirm_reclaimed";
    case EventType::TunnelMinted: return "tunnel_minted";
    case EventType::TunnelConfirmed: return "tunnel_confirmed";
    case EventType::KeepAliveMissed: return "keepalive_missed";
    case EventType::TunnelFailedOver: return "tunnel_failed_over";
    case EventType::TunnelExpired: return "tunnel_expired";
    case EventType::TunnelTeardownSent: return "teardown_sent";
    case EventType::TunnelTornDown: return "tunnel_torn_down";
    case EventType::RenegotiationScheduled: return "renegotiation_scheduled";
    case EventType::TunnelWatched: return "tunnel_watched";
    case EventType::TunnelUnwatched: return "tunnel_unwatched";
    case EventType::TunnelInvalidated: return "tunnel_invalidated";
    case EventType::BusSend: return "bus_send";
    case EventType::BusDeliver: return "bus_deliver";
    case EventType::BusDrop: return "bus_drop";
    case EventType::BusDuplicate: return "bus_duplicate";
    case EventType::TimerScheduled: return "timer_scheduled";
    case EventType::TimerFired: return "timer_fired";
    case EventType::TimerCancelled: return "timer_cancelled";
    case EventType::RibRootCause: return "rib_root_cause";
    case EventType::RibAnnounce: return "rib_announce";
    case EventType::RibImplicitWithdraw: return "rib_implicit_withdraw";
    case EventType::RibWithdraw: return "rib_withdraw";
    case EventType::RibDeliver: return "rib_deliver";
    case EventType::RibLoss: return "rib_loss";
    case EventType::RibDampingSuppress: return "rib_damping_suppress";
    case EventType::RibMraiCoalesce: return "rib_mrai_coalesce";
    case EventType::RibBestChanged: return "rib_best_changed";
  }
  return "unknown";
}

std::string to_json(const TraceEvent& event) {
  std::string line;
  line.reserve(160);
  line += "{\"t\":";
  line += std::to_string(event.time);
  line += ",\"type\":\"";
  line += to_string(event.type);
  line += "\",\"actor\":";
  line += std::to_string(event.actor);
  if (event.peer != 0) {
    line += ",\"peer\":";
    line += std::to_string(event.peer);
  }
  if (event.negotiation != 0) {
    line += ",\"negotiation\":";
    line += std::to_string(event.negotiation);
  }
  if (event.tunnel != 0) {
    line += ",\"tunnel\":";
    line += std::to_string(event.tunnel);
  }
  if (event.value != 0) {
    line += ",\"value\":";
    line += std::to_string(event.value);
  }
  if (event.detail[0] != '\0') {
    line += ",\"detail\":\"";
    // Details are static literals without specials today, but route them
    // through the shared escaper so a future literal cannot break the JSONL.
    line += json_escape(event.detail);
    line += "\"";
  }
  line += "}";
  return line;
}

JsonlFileSink::JsonlFileSink(const std::string& path)
    : path_(path), out_(path) {
  require(static_cast<bool>(out_),
          "JsonlFileSink: cannot open trace file: " + path);
}

JsonlFileSink::~JsonlFileSink() {
  out_.flush();
  if (!out_ && failures_ == 0) failures_ = 1;  // flush-time loss (ENOSPC)
  if (failures_ != 0) {
    std::fprintf(stderr,
                 "JsonlFileSink: %llu write failure(s) on %s — trace "
                 "incomplete\n",
                 static_cast<unsigned long long>(failures_), path_.c_str());
  }
}

void JsonlFileSink::on_event(const TraceEvent& event) {
  out_ << to_json(event) << '\n';
  // A failed stream stays failed: every further event counts as lost rather
  // than silently vanishing into a bad ofstream.
  if (out_) {
    ++lines_;
  } else {
    ++failures_;
  }
}

bool JsonlFileSink::flush() {
  out_.flush();
  return static_cast<bool>(out_);
}

// ---------------------------------------------------------------- recorder

TraceRecorder::TraceRecorder(std::size_t capacity) {
  require(capacity > 0, "TraceRecorder: capacity must be positive");
  ring_.resize(capacity);
}

void TraceRecorder::add_sink(TraceSink* sink) {
  require(sink != nullptr, "TraceRecorder::add_sink: null sink");
  sinks_.push_back(sink);
}

void TraceRecorder::record(const TraceEvent& event) {
  ring_[head_] = event;
  head_ = (head_ + 1) % ring_.size();
  if (live_ < ring_.size()) ++live_;
  ++recorded_;
  for (TraceSink* sink : sinks_) sink->on_event(event);
}

template <typename Predicate>
std::vector<TraceEvent> TraceRecorder::collect(Predicate&& keep) const {
  std::vector<TraceEvent> out;
  const std::size_t start = (head_ + ring_.size() - live_) % ring_.size();
  for (std::size_t i = 0; i < live_; ++i) {
    const TraceEvent& event = ring_[(start + i) % ring_.size()];
    if (keep(event)) out.push_back(event);
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  return collect([](const TraceEvent&) { return true; });
}

std::vector<TraceEvent> TraceRecorder::for_negotiation(
    std::uint64_t id) const {
  return collect(
      [id](const TraceEvent& event) { return event.negotiation == id; });
}

std::vector<TraceEvent> TraceRecorder::for_tunnel(std::uint64_t id) const {
  return collect([id](const TraceEvent& event) { return event.tunnel == id; });
}

std::size_t TraceRecorder::count(EventType type) const {
  return collect([type](const TraceEvent& event) {
           return event.type == type;
         })
      .size();
}

std::size_t TraceRecorder::count(EventType type, std::uint32_t actor) const {
  return collect([type, actor](const TraceEvent& event) {
           return event.type == type && event.actor == actor;
         })
      .size();
}

// ------------------------------------------------- causal reconstruction

std::string NegotiationTimeline::summary() const {
  std::string out;
  auto emit = [&out](EventType type, std::size_t repeats) {
    if (!out.empty()) out += " → ";
    out += to_string(type);
    if (repeats > 1) {
      out += " ×";
      out += std::to_string(repeats);
    }
  };
  std::size_t streak = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    ++streak;
    const bool run_ends =
        i + 1 == events.size() || events[i + 1].type != events[i].type;
    if (run_ends) {
      emit(events[i].type, streak);
      streak = 0;
    }
  }
  return out;
}

NegotiationTimeline reconstruct_negotiation(const TraceRecorder& recorder,
                                            std::uint64_t negotiation_id) {
  NegotiationTimeline timeline;
  timeline.negotiation_id = negotiation_id;
  // First pass: the handshake events carry the negotiation id and reveal
  // the tunnel id the negotiation bound (if it established).
  for (const TraceEvent& event : recorder.for_negotiation(negotiation_id)) {
    if (event.tunnel != 0) timeline.tunnel_id = event.tunnel;
  }
  // Second pass: join in the bound tunnel's own lifetime events (keep-alive
  // loss, failover, expiry, teardown), which carry only the tunnel id. The
  // ring is chronological, so one ordered scan suffices.
  for (const TraceEvent& event : recorder.snapshot()) {
    const bool by_negotiation = event.negotiation == negotiation_id;
    const bool by_tunnel = timeline.tunnel_id != 0 &&
                           event.negotiation == 0 &&
                           event.tunnel == timeline.tunnel_id;
    if (!by_negotiation && !by_tunnel) continue;
    timeline.events.push_back(event);
    switch (event.type) {
      case EventType::Retransmit: ++timeline.retransmits; break;
      case EventType::NegotiationEstablished:
        timeline.established = true;
        break;
      case EventType::NegotiationFailed: timeline.failed = true; break;
      default: break;
    }
  }
  return timeline;
}

}  // namespace miro::obs
