#include "core/protocol.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "core/alternates.hpp"
#include "obs/profile.hpp"

namespace miro::core {

constexpr sim::Time kKeepAliveInterval = 100;
constexpr sim::Time kSweepInterval = 100;
/// A negotiation whose responder stays silent this long fails locally
/// (the completion callback fires with established == false).
constexpr sim::Time kNegotiationTimeout = 2000;
constexpr sim::Time kRetryInitial = 40;  ///< first retransmit after this long
constexpr sim::Time kRetryMax = 320;     ///< exponential backoff cap
constexpr double kRetryJitter = 0.25;    ///< extra delay, uniform in
                                         ///< [0, kRetryJitter * interval]
constexpr std::uint32_t kTeardownRetransmits = 2;  ///< blind extra teardowns
/// Consecutive unacknowledged keep-alives before the tunnel is declared
/// lost and failed over.
constexpr std::uint32_t kKeepAliveMissThreshold = 3;
/// How long completed-negotiation ids are remembered for duplicate
/// suppression; must exceed any plausible duplicate's lateness.
constexpr sim::Time kDedupRetention = 4000;
/// A switch responder diverts to a same-class alternate for free and asks
/// this much compensation per class rank of downgrade (the conventional
/// local-preference band width).
constexpr int kSwitchPricePerRank = 100;

MiroAgent::MiroAgent(NodeId self, RouteStore& store, Bus& bus,
                     ResponderConfig responder, SoftStateConfig soft_state)
    : self_(self), store_(&store), bus_(&bus),
      responder_(std::move(responder)), soft_state_(soft_state),
      rng_(hash_combine(soft_state.rng_seed, self)) {
  bus_->attach(self_, [this](sim::EndpointId from, const Message& message) {
    on_message(from, message);
  });
  schedule_sweep();
}

void MiroAgent::record(obs::EventKind kind, NodeId peer,
                       std::uint64_t negotiation, TunnelId tunnel,
                       std::int64_t value, const char* detail) {
  if (log_ == nullptr) return;
  log_->record({.time = bus_->scheduler().now(),
                .kind = kind,
                .actor = self_,
                .peer = peer,
                .negotiation = negotiation,
                .tunnel = tunnel,
                .value = value,
                .detail = detail});
}

void MiroAgent::export_metrics(obs::MetricsRegistry& registry,
                               const std::string& prefix) const {
  auto set = [&](const char* name, std::size_t value) {
    registry.counter(prefix + "." + name).set(value);
  };
  set("requests_sent", stats_.requests_sent);
  set("requests_received", stats_.requests_received);
  set("requests_rejected", stats_.requests_rejected);
  set("offers_sent", stats_.offers_sent);
  set("tunnels_established", stats_.tunnels_established);
  set("tunnels_expired", stats_.tunnels_expired);
  set("tunnels_torn_down", stats_.tunnels_torn_down);
  set("switches_accepted", stats_.switches_accepted);
  set("switches_declined", stats_.switches_declined);
  set("retransmissions", stats_.retransmissions);
  set("duplicates_suppressed", stats_.duplicates_suppressed);
  set("tunnels_failed_over", stats_.tunnels_failed_over);
  set("negotiations_abandoned", stats_.negotiations_abandoned);
  set("renegotiations", stats_.renegotiations);
  set("stale_confirms_reclaimed", stats_.stale_confirms_reclaimed);
  registry.gauge(prefix + ".upstream_tunnels")
      .set(static_cast<double>(upstream_.size()));
  registry.gauge(prefix + ".downstream_tunnels")
      .set(static_cast<double>(tunnels_.active_count()));
}

// ------------------------------------------------------ reliability helpers

sim::Time MiroAgent::retry_delay(std::uint32_t attempt) {
  sim::Time rto = kRetryInitial;
  for (std::uint32_t i = 0; i < attempt && rto < kRetryMax; ++i)
    rto *= 2;
  rto = std::min(rto, kRetryMax);
  const auto span = static_cast<sim::Time>(kRetryJitter *
                                           static_cast<double>(rto));
  return span == 0 ? rto : rto + rng_.next_below(span + 1);
}

void MiroAgent::send_handshake(std::uint64_t id) {
  const PendingRequest& p = pending_.at(id);
  if (p.phase == PendingRequest::Phase::AwaitingOffers) {
    bus_->send(self_, p.responder,
               RouteRequest{id, p.destination, p.arrival_neighbor, p.avoid,
                            p.max_cost});
  } else {
    bus_->send(self_, p.responder, TunnelAccept{id, p.chosen, p.chosen_cost});
  }
}

void MiroAgent::arm_retry(std::uint64_t id) {
  PendingRequest& p = pending_.at(id);
  if (p.attempts >= soft_state_.max_retries) return;  // backstop takes over
  p.retry =
      bus_->scheduler().after(retry_delay(p.attempts), [this, id]() {
        auto it = pending_.find(id);
        if (it == pending_.end()) return;  // completed meanwhile
        ++it->second.attempts;
        ++stats_.retransmissions;
        record(obs::EventKind::Retransmit, it->second.responder, id, 0,
               it->second.attempts,
               it->second.phase == PendingRequest::Phase::AwaitingOffers
                   ? "route_request"
                   : "tunnel_accept");
        send_handshake(id);
        arm_retry(id);
      });
}

void MiroAgent::complete(std::uint64_t id, const NegotiationOutcome& outcome) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  it->second.retry.cancel();
  it->second.timeout.cancel();
  auto callback = std::move(it->second.on_complete);
  pending_.erase(it);
  if (outcome.established) {
    completed_[id] = CompletedRequest{outcome.responder, outcome.tunnel_id,
                                      bus_->scheduler().now()};
  }
  callback(outcome);
}

void MiroAgent::send_teardown(NodeId responder, TunnelId tunnel_id,
                              std::uint32_t attempt) {
  record(obs::EventKind::TunnelTeardownSent, responder, 0, tunnel_id, attempt);
  bus_->send(self_, responder, TunnelTeardown{tunnel_id});
  if (attempt >= kTeardownRetransmits) return;
  // Teardown carries no acknowledgment, so the extra copies are sent blind;
  // the responder's soft-state expiry covers the case where all are lost.
  bus_->scheduler().after(retry_delay(attempt),
                          [this, responder, tunnel_id, attempt]() {
                            ++stats_.retransmissions;
                            record(obs::EventKind::Retransmit, responder, 0,
                                   tunnel_id, attempt + 1, "teardown");
                            send_teardown(responder, tunnel_id, attempt + 1);
                          });
}

void MiroAgent::fail_over(TunnelId tunnel_id, TunnelLostEvent::Reason reason) {
  auto it = upstream_.find(tunnel_id);
  if (it == upstream_.end()) return;
  const UpstreamTunnel lost = it->second;
  upstream_.erase(it);
  ++stats_.tunnels_failed_over;
  record(obs::EventKind::TunnelFailedOver, lost.responder, 0, tunnel_id, 0,
         reason == TunnelLostEvent::Reason::MissedKeepAlives
             ? "missed_keepalives"
             : "responder_reset");

  // From here traffic to `lost.destination` rides the BGP default path
  // again; re-negotiation (if enabled) is rate-limited per
  // (responder, destination) by the hold-down window so a flapping link
  // cannot drive a request storm.
  bool will_renegotiate = false;
  if (soft_state_.auto_renegotiate &&
      lost.destination != topo::kInvalidNode) {
    const std::uint64_t key = hash_combine(lost.responder, lost.destination);
    const sim::Time now = bus_->scheduler().now();
    sim::Time& until = hold_down_until_[key];
    if (now >= until) {
      until = now + soft_state_.renegotiate_hold_down;
      will_renegotiate = true;
      record(obs::EventKind::RenegotiationScheduled, lost.responder, 0,
             tunnel_id,
             static_cast<std::int64_t>(soft_state_.renegotiate_hold_down));
      bus_->scheduler().after(soft_state_.renegotiate_hold_down,
                              [this, lost]() {
                                ++stats_.renegotiations;
                                request(lost.responder, lost.arrival_neighbor,
                                        lost.destination, lost.avoid,
                                        lost.max_cost,
                                        [this](const NegotiationOutcome& o) {
                                          if (on_renegotiated_)
                                            on_renegotiated_(o);
                                        });
                              });
    }
  }
  if (on_tunnel_lost_) {
    on_tunnel_lost_(TunnelLostEvent{tunnel_id, lost.responder,
                                    lost.destination, reason,
                                    will_renegotiate});
  }
}

void MiroAgent::purge_dedup(sim::Time now) {
  if (now < kDedupRetention) return;
  const sim::Time horizon = now - kDedupRetention;
  std::erase_if(completed_,
                [&](const auto& kv) { return kv.second.at < horizon; });
  std::erase_if(minted_,
                [&](const auto& kv) { return kv.second.at < horizon; });
  std::erase_if(hold_down_until_,
                [&](const auto& kv) { return kv.second < horizon; });
}

// --------------------------------------------------------------- requester

std::uint64_t MiroAgent::request(NodeId responder, NodeId arrival_neighbor,
                                 NodeId destination,
                                 std::optional<NodeId> avoid,
                                 std::optional<int> max_cost,
                                 CompletionCallback on_complete) {
  require(static_cast<bool>(on_complete), "MiroAgent::request: null callback");
  obs::ScopedSpan span(obs::profile(), "protocol/request", "core");
  const std::uint64_t id = next_negotiation_id_++;
  PendingRequest& p =
      pending_
          .emplace(id, PendingRequest{responder, arrival_neighbor,
                                      destination, avoid, max_cost,
                                      std::move(on_complete), 0,
                                      PendingRequest::Phase::AwaitingOffers,
                                      Route{}, 0, 0, {}, {}})
          .first->second;
  ++stats_.requests_sent;
  record(obs::EventKind::NegotiationRequested, responder, id);
  send_handshake(id);
  arm_retry(id);
  // Fail locally if the responder stays silent past every retransmission
  // (crashed peer, partitioned link): the callback must fire exactly once
  // either way. complete() cancels this timer, and negotiation ids are
  // never recycled, so a stale closure can never fail a later negotiation.
  p.timeout =
      bus_->scheduler().after(kNegotiationTimeout, [this, id]() {
        auto it = pending_.find(id);
        if (it == pending_.end()) return;  // completed in time
        ++stats_.negotiations_abandoned;
        record(obs::EventKind::NegotiationFailed, it->second.responder, id, 0,
               0, "timeout");
        NegotiationOutcome outcome;
        outcome.responder = it->second.responder;
        outcome.offers_received = it->second.offers_received;
        complete(id, outcome);
      });
  return id;
}

void MiroAgent::teardown(TunnelId tunnel_id) {
  auto it = upstream_.find(tunnel_id);
  if (it == upstream_.end()) return;
  const NodeId responder = it->second.responder;
  upstream_.erase(it);  // stops the keep-alive loop
  send_teardown(responder, tunnel_id, 0);
}

void MiroAgent::on_message(sim::EndpointId from, const Message& message) {
  std::visit([this, from](const auto& m) { handle(from, m); }, message);
}

void MiroAgent::handle(NodeId from, const RouteRequest& request) {
  obs::ScopedSpan span(obs::profile(), "protocol/handle_request", "core");
  ++stats_.requests_received;
  // Admission control: "accept negotiation from ... when tunnel_number < N".
  const policy::ResponderSpec& rules = responder_.rules;
  if (!rules.admits(store_->graph().as_number(from),
                    tunnels_.active_count())) {
    ++stats_.requests_rejected;
    bus_->send(self_, from, RouteOffers{request.negotiation_id, {}});
    return;
  }

  RouteOffers reply{request.negotiation_id, {}};
  for (Route& route :
       offered_routes(store_->solver(), store_->tree(request.destination),
                      self_, request.arrival_neighbor, responder_.policy)) {
    // Requester-supplied constraint filtering happens at the responder so
    // useless candidates never cross the wire (Section 6.2.2).
    if (request.avoid && route.traverses(*request.avoid)) continue;
    // A route no negotiation filter prices must not be offered.
    const std::optional<int> cost =
        rules.price_for(bgp::conventional_local_pref(route.route_class));
    if (!cost || (request.max_cost && *cost > *request.max_cost)) continue;
    reply.offers.push_back(RouteOffer{std::move(route), *cost});
  }
  stats_.offers_sent += reply.offers.size();
  bus_->send(self_, from, std::move(reply));
}

void MiroAgent::handle(NodeId from, const RouteOffers& offers) {
  obs::ScopedSpan span(obs::profile(), "protocol/handle_offers", "core");
  auto it = pending_.find(offers.negotiation_id);
  if (it == pending_.end() || it->second.responder != from) return;
  PendingRequest& pending = it->second;
  if (pending.phase != PendingRequest::Phase::AwaitingOffers) {
    // A duplicated or retransmission-induced second batch of offers after
    // the accept went out; the accept has its own retransmission timer.
    ++stats_.duplicates_suppressed;
    record(obs::EventKind::DuplicateSuppressed, from, offers.negotiation_id, 0,
           0, "route_offers");
    return;
  }
  pending.offers_received = offers.offers.size();
  record(obs::EventKind::OffersReceived, from, offers.negotiation_id, 0,
         static_cast<std::int64_t>(offers.offers.size()));

  // Pick the cheapest acceptable offer; break price ties with the standard
  // route preference order.
  const RouteOffer* best = nullptr;
  for (const RouteOffer& offer : offers.offers) {
    if (pending.avoid && offer.route.traverses(*pending.avoid)) continue;
    if (pending.max_cost && offer.cost > *pending.max_cost) continue;
    if (best == nullptr || offer.cost < best->cost ||
        (offer.cost == best->cost &&
         bgp::prefer(offer.route, best->route, store_->graph()))) {
      best = &offer;
    }
  }
  if (best == nullptr) {
    record(obs::EventKind::NegotiationFailed, from, offers.negotiation_id, 0,
           0, "no_acceptable_offer");
    NegotiationOutcome outcome;
    outcome.responder = from;
    outcome.offers_received = pending.offers_received;
    complete(offers.negotiation_id, outcome);
    return;
  }
  pending.retry.cancel();
  pending.phase = PendingRequest::Phase::AwaitingConfirm;
  pending.chosen = best->route;
  pending.chosen_cost = best->cost;
  pending.attempts = 0;
  record(obs::EventKind::AcceptSent, from, offers.negotiation_id, 0,
         best->cost);
  send_handshake(offers.negotiation_id);
  arm_retry(offers.negotiation_id);
}

void MiroAgent::handle(NodeId from, const TunnelAccept& accept) {
  // Downstream side. Idempotence first: a duplicated (or retransmitted)
  // accept must never mint a second tunnel for the same negotiation — the
  // cached confirm is re-sent instead.
  const std::uint64_t key = hash_combine(from, accept.negotiation_id);
  auto it = minted_.find(key);
  if (it != minted_.end() && it->second.requester == from &&
      it->second.negotiation_id == accept.negotiation_id) {
    ++stats_.duplicates_suppressed;
    record(obs::EventKind::DuplicateSuppressed, from, accept.negotiation_id,
           it->second.tunnel_id, 0, "tunnel_accept");
    bus_->send(self_, from,
               TunnelConfirm{accept.negotiation_id, it->second.tunnel_id});
    return;
  }
  const sim::Time now = bus_->scheduler().now();
  const TunnelId id = tunnels_.create(from, accept.chosen, accept.cost, now);
  ++stats_.tunnels_established;
  record(obs::EventKind::TunnelMinted, from, accept.negotiation_id, id,
         accept.cost);
  minted_[key] = MintedTunnel{from, accept.negotiation_id, id, now};
  bus_->send(self_, from, TunnelConfirm{accept.negotiation_id, id});
}

void MiroAgent::handle(NodeId from, const TunnelConfirm& confirm) {
  auto it = pending_.find(confirm.negotiation_id);
  if (it != pending_.end() && it->second.responder == from) {
    const PendingRequest& pending = it->second;
    upstream_.emplace(confirm.tunnel_id,
                      UpstreamTunnel{from, pending.arrival_neighbor,
                                     pending.destination, pending.avoid,
                                     pending.max_cost, 0});
    schedule_keepalive(confirm.tunnel_id);
    record(obs::EventKind::TunnelConfirmed, from, confirm.negotiation_id,
           confirm.tunnel_id);
    record(obs::EventKind::NegotiationEstablished, from,
           confirm.negotiation_id, confirm.tunnel_id, pending.chosen_cost);

    NegotiationOutcome outcome;
    outcome.established = true;
    outcome.responder = from;
    outcome.tunnel_id = confirm.tunnel_id;
    outcome.route = pending.chosen;
    outcome.cost = pending.chosen_cost;
    outcome.offers_received = pending.offers_received;
    complete(confirm.negotiation_id, outcome);
    return;
  }

  // Duplicate of a negotiation that already completed (the confirm was
  // duplicated in flight, or our accept retransmission triggered a cached
  // re-confirm): suppress rather than treating it as stale.
  auto done = completed_.find(confirm.negotiation_id);
  if (done != completed_.end() && done->second.responder == from &&
      done->second.tunnel_id == confirm.tunnel_id) {
    ++stats_.duplicates_suppressed;
    record(obs::EventKind::DuplicateSuppressed, from, confirm.negotiation_id,
           confirm.tunnel_id, 0, "tunnel_confirm");
    return;
  }
  // Retention may have forgotten the completion, but a live upstream tunnel
  // is equally good evidence that this confirm is a duplicate.
  auto up = upstream_.find(confirm.tunnel_id);
  if (up != upstream_.end() && up->second.responder == from) {
    ++stats_.duplicates_suppressed;
    record(obs::EventKind::DuplicateSuppressed, from, confirm.negotiation_id,
           confirm.tunnel_id, 0, "tunnel_confirm");
    return;
  }

  // A confirm nobody is waiting for: the negotiation timed out locally (or
  // was never ours) while the responder minted the tunnel. Without a reply
  // the responder would hold the orphan until soft-state expiry; answer
  // with a teardown to reclaim it promptly.
  ++stats_.stale_confirms_reclaimed;
  record(obs::EventKind::StaleConfirmReclaimed, from, confirm.negotiation_id,
         confirm.tunnel_id);
  send_teardown(from, confirm.tunnel_id, 0);
}

void MiroAgent::handle(NodeId from, const TunnelKeepAlive& keepalive) {
  const bool alive =
      tunnels_.heartbeat(keepalive.tunnel_id, bus_->scheduler().now());
  // Always answer: the ack is the upstream side's only liveness signal, and
  // alive == false tells it the soft state is gone (expired or torn down).
  bus_->send(self_, from, TunnelKeepAliveAck{keepalive.tunnel_id, alive});
}

void MiroAgent::handle(NodeId from, const TunnelKeepAliveAck& ack) {
  auto it = upstream_.find(ack.tunnel_id);
  if (it == upstream_.end() || it->second.responder != from) return;
  if (!ack.alive) {
    fail_over(ack.tunnel_id, TunnelLostEvent::Reason::ResponderReset);
    return;
  }
  it->second.unacked_keepalives = 0;
}

void MiroAgent::handle(NodeId from, const TunnelTeardown& teardown) {
  if (tunnels_.remove(teardown.tunnel_id)) {
    ++stats_.tunnels_torn_down;
    record(obs::EventKind::TunnelTornDown, from, 0, teardown.tunnel_id);
  }
}

// ---------------------------------------------------------------- switches

std::uint64_t MiroAgent::request_switch(NodeId responder, NodeId destination,
                                        NodeId desired_next_hop,
                                        int compensation,
                                        SwitchCallback on_complete) {
  require(static_cast<bool>(on_complete),
          "MiroAgent::request_switch: null callback");
  const std::uint64_t id = next_negotiation_id_++;
  pending_switches_.emplace(id, std::move(on_complete));
  ++stats_.requests_sent;
  bus_->send(self_, responder,
             SwitchRequest{id, destination, desired_next_hop, compensation});
  bus_->scheduler().after(kNegotiationTimeout, [this, id]() {
    auto it = pending_switches_.find(id);
    if (it == pending_switches_.end()) return;
    auto callback = std::move(it->second);
    pending_switches_.erase(it);
    callback(false, {});
  });
  return id;
}

void MiroAgent::handle(NodeId from, const SwitchRequest& request) {
  ++stats_.requests_received;
  SwitchResponse reply{request.negotiation_id, false, {}};
  const bgp::RoutingTree& tree = store_->tree(request.destination);
  if (responder_.rules.trusts(store_->graph().as_number(from)) &&
      tree.reachable(self_)) {
    const Route current = tree.route_of(self_);
    // Find the alternate with the requested first hop among this AS's
    // learned candidates.
    for (const Route& alternate :
         store_->solver().candidates_at(tree, self_)) {
      if (alternate.next_hop() != request.desired_next_hop) continue;
      const int downgrade = bgp::rank(alternate.route_class) -
                            bgp::rank(current.route_class);
      if (downgrade <= 0 ||
          request.compensation >= downgrade * kSwitchPricePerRank) {
        // Agree: pin the local selection. The data-plane push (and the
        // re-advertisement to customers) belongs to the AS's RCP; the eval
        // harness models the network-wide effect with a pinned re-solve.
        switched_[request.destination] = request.desired_next_hop;
        reply.accepted = true;
        reply.new_path = alternate.path;
        ++stats_.switches_accepted;
      }
      break;
    }
  }
  if (!reply.accepted) ++stats_.switches_declined;
  bus_->send(self_, from, std::move(reply));
}

void MiroAgent::handle(NodeId from, const SwitchResponse& response) {
  (void)from;
  auto it = pending_switches_.find(response.negotiation_id);
  if (it == pending_switches_.end()) return;
  auto callback = std::move(it->second);
  pending_switches_.erase(it);
  callback(response.accepted, response.new_path);
}

// ------------------------------------------------------------- soft timers

void MiroAgent::schedule_keepalive(TunnelId tunnel_id) {
  bus_->scheduler().after(kKeepAliveInterval, [this, tunnel_id]() {
    auto it = upstream_.find(tunnel_id);
    if (it == upstream_.end()) return;  // torn down or failed over
    if (it->second.unacked_keepalives >= kKeepAliveMissThreshold) {
      fail_over(tunnel_id, TunnelLostEvent::Reason::MissedKeepAlives);
      return;
    }
    if (it->second.unacked_keepalives > 0) {
      // The previous keep-alive (or its ack) was lost in flight.
      record(obs::EventKind::KeepAliveMissed, it->second.responder, 0,
             tunnel_id, it->second.unacked_keepalives);
    }
    ++it->second.unacked_keepalives;
    bus_->send(self_, it->second.responder, TunnelKeepAlive{tunnel_id});
    schedule_keepalive(tunnel_id);
  });
}

void MiroAgent::schedule_sweep() {
  bus_->scheduler().after(kSweepInterval, [this]() {
    const sim::Time now = bus_->scheduler().now();
    const auto expired = tunnels_.expire(now, soft_state_.expiry_timeout);
    stats_.tunnels_expired += expired.size();
    for (net::TunnelId id : expired)
      record(obs::EventKind::TunnelExpired, /*peer=*/0, 0, id);
    purge_dedup(now);
    schedule_sweep();
  });
}

}  // namespace miro::core
