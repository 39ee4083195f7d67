#include "bgp/session_bgp.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/error.hpp"
#include "common/memtrack.hpp"

namespace miro::bgp {

/// Propagation delay of every session, in ticks.
constexpr sim::Time kLinkDelay = 10;

SessionedBgpNetwork::SessionedBgpNetwork(const AsGraph& graph,
                                         NodeId destination,
                                         sim::Scheduler& scheduler,
                                         ChurnDefenseConfig defense)
    : graph_(&graph), destination_(destination), scheduler_(&scheduler),
      defense_(defense),
      speakers_(graph.node_count()) {
  require(destination < graph.node_count(),
          "SessionedBgpNetwork: destination out of range");
  if (defense_.damping_enabled) {
    require(defense_.damping_penalty > 0,
            "SessionedBgpNetwork: damping_penalty must be > 0");
    require(defense_.damping_reuse > 0,
            "SessionedBgpNetwork: damping_reuse must be > 0");
    require(defense_.damping_suppress > defense_.damping_reuse,
            "SessionedBgpNetwork: damping_suppress must exceed damping_reuse");
    require(defense_.damping_ceiling >= defense_.damping_suppress,
            "SessionedBgpNetwork: damping_ceiling below damping_suppress");
    require(defense_.damping_half_life > 0,
            "SessionedBgpNetwork: damping_half_life must be > 0");
  }
  origins_.insert(destination_);
}

const Route& SessionedBgpNetwork::best(NodeId node) const {
  require(speakers_[node].best.has_value(),
          "SessionedBgpNetwork::best: no route");
  return *speakers_[node].best;
}

std::vector<NodeId> SessionedBgpNetwork::path_of(NodeId node) const {
  return speakers_[node].best ? speakers_[node].best->path
                              : std::vector<NodeId>{};
}

void SessionedBgpNetwork::start() {
  require(!started_, "SessionedBgpNetwork::start: already started");
  started_ = true;
  obs::EventId root = 0;
  if (log_ != nullptr) {
    root = log_->record_root(scheduler_->now(), destination_, "start");
  }
  obs::EventLog::CauseScope scope(log_, root);
  reselect(destination_);  // announces to every neighbor
}

void SessionedBgpNetwork::send(NodeId from, NodeId to,
                               std::vector<NodeId> path_at_sender,
                               bool replaces) {
  if (path_at_sender.empty()) {
    ++stats_.withdrawals_sent;
  } else {
    ++stats_.updates_sent;
  }
  obs::EventId sent_id = 0;
  if (log_ != nullptr) {
    const obs::EventKind kind =
        path_at_sender.empty()
            ? obs::EventKind::Withdraw
            : (replaces ? obs::EventKind::ImplicitWithdraw
                        : obs::EventKind::Announce);
    sent_id = record(kind, from, to, path_at_sender.size());
  }
  ++messages_in_flight_;
  scheduler_->after(kLinkDelay, [this, from, to, sent_id,
                                 path = std::move(path_at_sender)]() {
    --messages_in_flight_;
    // A message in flight across a link that failed meanwhile is lost; the
    // session-down handling already flushed the receiver's state.
    if (!link_up(from, to)) {
      ++stats_.lost_in_flight;
      if (log_ != nullptr) {
        obs::EventLog::CauseScope loss_scope(log_, sent_id);
        record(obs::EventKind::Loss, to, from, path.size());
      }
      return;
    }
    if (path.empty()) {
      ++stats_.delivered_withdrawals;
    } else {
      ++stats_.delivered_updates;
    }
    obs::EventId deliver_id = 0;
    if (log_ != nullptr) {
      obs::EventLog::CauseScope deliver_scope(log_, sent_id);
      deliver_id = record(obs::EventKind::Deliver, to, from, path.size());
    }
    // Everything the receiver does in reaction — damping, reselect, further
    // sends — descends causally from this delivery.
    obs::EventLog::CauseScope scope(log_, deliver_id);
    if (message_observer_) message_observer_(from, to, path);
    receive(to, from, path);
  });
}

void SessionedBgpNetwork::enqueue(NodeId from, NodeId to,
                                  std::vector<NodeId> path_at_sender,
                                  bool replaces) {
  if (defense_.mrai == 0) {
    send(from, to, std::move(path_at_sender), replaces);
    return;
  }
  SessionOut& out = speakers_[from].sessions[to];
  if (!out.mrai_armed) {
    // With per-session wire truth available, classify against it rather
    // than the caller's RIB-level approximation.
    const bool wire_replaces =
        !out.last_sent.empty() && !path_at_sender.empty();
    out.last_sent = path_at_sender;
    out.has_pending = false;
    out.pending.clear();
    out.pending_cause = 0;
    send(from, to, std::move(path_at_sender), wire_replaces);
    arm_mrai(from, to);
    return;
  }
  // Timer armed: the message parks. Superseding a queued message, or
  // cancelling back to what the wire already carries, both elide a send.
  if (out.has_pending) {
    ++stats_.coalesced;
    if (log_ != nullptr) {
      // The elided message is the one parked earlier; attribute the
      // coalesce to the cause that parked it, not the superseding cause.
      obs::EventLog::CauseScope scope(log_, out.pending_cause);
      record(obs::EventKind::MraiCoalesce, from, to, out.pending.size());
    }
  }
  if (path_at_sender == out.last_sent) {
    if (out.has_pending) --mrai_parked_;
    out.has_pending = false;
    out.pending.clear();
    out.pending_cause = 0;
    return;
  }
  if (!out.has_pending) ++mrai_parked_;
  out.has_pending = true;
  out.pending = std::move(path_at_sender);
  out.pending_cause = current_cause();
}

void SessionedBgpNetwork::arm_mrai(NodeId from, NodeId to) {
  SessionOut& out = speakers_[from].sessions[to];
  out.mrai_armed = true;
  out.timer = scheduler_->after(defense_.mrai, [this, from, to]() {
    SessionOut& session = speakers_[from].sessions[to];
    session.mrai_armed = false;
    if (!session.has_pending) return;
    std::vector<NodeId> path = std::move(session.pending);
    session.pending.clear();
    session.has_pending = false;
    const obs::EventId cause = session.pending_cause;
    session.pending_cause = 0;
    --mrai_parked_;
    if (!link_up(from, to)) return;  // session died while parked
    const bool replaces = !session.last_sent.empty() && !path.empty();
    session.last_sent = path;
    // The delayed send still belongs to the cause that parked the message.
    obs::EventLog::CauseScope scope(log_, cause);
    send(from, to, std::move(path), replaces);
    arm_mrai(from, to);
  });
}

obs::EventId SessionedBgpNetwork::record(obs::EventKind kind, NodeId actor,
                                         NodeId peer, std::size_t path_len,
                                         std::uint64_t path_hash) {
  return log_->record({.time = scheduler_->now(),
                       .kind = kind,
                       .actor = actor,
                       .peer = peer,
                       .prefix = destination_,
                       .path_len = static_cast<std::uint32_t>(path_len),
                       .path_hash = path_hash});
}

void SessionedBgpNetwork::decay_penalty(DampingState& state,
                                        sim::Time now) const {
  if (now <= state.anchor) return;
  state.penalty *= std::exp2(
      -static_cast<double>(now - state.anchor) /
      static_cast<double>(defense_.damping_half_life));
  state.anchor = now;
}

bool SessionedBgpNetwork::penalize(NodeId node, NodeId from) {
  DampingState& state = speakers_[node].damping[from];
  const sim::Time now = scheduler_->now();
  decay_penalty(state, now);
  state.penalty =
      std::min(state.penalty + defense_.damping_penalty,
               defense_.damping_ceiling);
  if (state.suppressed) {
    // Extend the quarantine: the penalty grew, so the reuse point moved.
    state.reuse_timer.cancel();
    schedule_reuse(node, from);
    return false;
  }
  if (state.penalty >= defense_.damping_suppress) {
    state.suppressed = true;
    ++stats_.routes_damped;
    ++active_suppressions_;
    schedule_reuse(node, from);
    return true;
  }
  return false;
}

void SessionedBgpNetwork::schedule_reuse(NodeId node, NodeId from) {
  DampingState& state = speakers_[node].damping[from];
  const double ratio = state.penalty / defense_.damping_reuse;
  const sim::Time dt =
      ratio <= 1.0
          ? 1
          : static_cast<sim::Time>(
                std::ceil(static_cast<double>(defense_.damping_half_life) *
                          std::log2(ratio)));
  // The reuse timer (and any release reselect it runs) descends causally
  // from whatever triggered the suppression or its extension.
  state.reuse_timer = scheduler_->after(
      std::max<sim::Time>(dt, 1),
      [this, node, from, cause = current_cause()]() {
        obs::EventLog::CauseScope scope(log_, cause);
        DampingState& s = speakers_[node].damping[from];
        if (!s.suppressed) return;
        decay_penalty(s, scheduler_->now());
        if (s.penalty > defense_.damping_reuse) {
          schedule_reuse(node, from);  // rounding guard; rarely taken
          return;
        }
        s.suppressed = false;
        --active_suppressions_;
        reselect(node);
      });
}

bool SessionedBgpNetwork::is_suppressed(NodeId node, NodeId from) const {
  const auto& damping = speakers_[node].damping;
  const auto it = damping.find(from);
  return it != damping.end() && it->second.suppressed;
}

double SessionedBgpNetwork::damping_penalty_of(NodeId node,
                                               NodeId from) const {
  const auto& damping = speakers_[node].damping;
  const auto it = damping.find(from);
  if (it == damping.end()) return 0;
  DampingState copy = it->second;
  copy.reuse_timer = {};
  decay_penalty(copy, scheduler_->now());
  return copy.penalty;
}

void SessionedBgpNetwork::receive(NodeId node, NodeId from,
                                  std::vector<NodeId> path_at_sender) {
  Speaker& speaker = speakers_[node];
  // Equal paths intern to equal ids, so the flap check below is one integer
  // compare instead of a vector compare.
  const PathId incoming =
      path_at_sender.empty() ? kNullPath : paths_.intern(path_at_sender);
  bool flap = false;
  if (defense_.damping_enabled) {
    const auto it = speaker.adj_in.find(from);
    const bool had = it != speaker.adj_in.end();
    if (incoming == kNullPath) {
      flap = had;  // withdrawal of a held route
    } else if (had) {
      flap = it->second != incoming;  // attribute/path change
    } else {
      // Re-announcement after a withdrawal; the initial announcement of a
      // never-seen route carries no penalty (RFC 2439 §4.4.2 shape).
      const auto d = speaker.damping.find(from);
      flap = d != speaker.damping.end() && d->second.was_known;
    }
  }
  if (incoming == kNullPath) {
    speaker.adj_in.erase(from);
  } else {
    speaker.adj_in[from] = incoming;
    if (defense_.damping_enabled) speaker.damping[from].was_known = true;
  }
  if (flap) {
    const bool just_suppressed = penalize(node, from);
    if (!just_suppressed && speaker.damping[from].suppressed) {
      // Absorbed: the pair is quarantined, nothing propagates.
      ++stats_.updates_suppressed;
      if (log_ != nullptr)
        record(obs::EventKind::DampingSuppress, node, from, 0);
      return;
    }
    // On the suppression edge fall through: one reselect expels the route.
  }
  reselect(node);
}

void SessionedBgpNetwork::reselect(NodeId node) {
  Speaker& speaker = speakers_[node];
  ++stats_.selections;

  std::optional<Route> next;
  if (origins_.count(node) != 0) {
    next = Route{{node}, RouteClass::Self};
  } else {
    std::vector<NodeId> path_at_sender;  // scratch, reused per neighbor
    for (const auto& [neighbor, path_id] : speaker.adj_in) {
      if (!link_up(node, neighbor)) continue;
      if (is_suppressed(node, neighbor)) continue;  // flap-damped
      // Implicit import policy: reject looping paths — a parent-chain walk,
      // no materialization needed for rejected candidates.
      if (paths_.contains(path_id, node)) continue;
      paths_.materialize_into(path_id, path_at_sender);
      Route candidate;
      candidate.path.reserve(path_at_sender.size() + 1);
      candidate.path.push_back(node);
      candidate.path.insert(candidate.path.end(), path_at_sender.begin(),
                            path_at_sender.end());
      candidate.route_class = path_class(*graph_, candidate.path);
      if (!next || prefer(candidate, *next, *graph_))
        next = std::move(candidate);
    }
  }

  const bool changed = next.has_value() != speaker.best.has_value() ||
                       (next && next->path != speaker.best->path);
  if (changed) {
    speaker.best = std::move(next);
    obs::EventId changed_id = 0;
    if (log_ != nullptr) {
      const std::size_t len = speaker.best ? speaker.best->path.size() : 0;
      const std::uint64_t hash =
          speaker.best ? obs::hash_path(speaker.best->path) : 0;
      changed_id = record(obs::EventKind::BestChanged, node, 0, len, hash);
    }
    if (observer_) {
      // A tunnel the observer tears down descends from this route change.
      obs::EventLog::CauseScope scope(log_, changed_id);
      observer_(node, speaker.best);
    }
  }

  // Export processing: advertise on change or on a fresh session; withdraw
  // when the route became unexportable or disappeared. Unchanged routes are
  // not re-sent ("updates are sent only when the route changes").
  for (const topo::Neighbor& n : graph_->neighbors(node)) {
    if (!link_up(node, n.node)) continue;
    const bool exportable =
        speaker.best.has_value() &&
        conventional_export_allows(speaker.best->route_class, n.rel);
    if (exportable) {
      const bool fresh_session =
          speaker.advertised_to.insert(n.node).second;
      if (changed || fresh_session)
        enqueue(node, n.node, speaker.best->path, !fresh_session);
    } else if (speaker.advertised_to.erase(n.node) > 0) {
      enqueue(node, n.node, {}, false);  // withdraw
    }
  }
}

void SessionedBgpNetwork::fail_link(NodeId a, NodeId b) {
  require(graph_->has_edge(a, b), "fail_link: no such link");
  if (!failed_links_.insert(link_key(a, b)).second) return;  // already down
  // Session down: both sides flush what they learned over it, the
  // Adj-RIB-Out presence bit, and any parked MRAI message, then re-run
  // selection (which propagates any change as updates/withdrawals to the
  // remaining neighbors). The implicit withdrawal of a held route counts as
  // a flap for damping purposes, so a link that flaps up and down is
  // eventually quarantined just like a flapping announcement.
  for (auto [self, other] : {std::pair{a, b}, std::pair{b, a}}) {
    Speaker& speaker = speakers_[self];
    const bool held = speaker.adj_in.erase(other) > 0;
    speaker.advertised_to.erase(other);
    const auto session = speaker.sessions.find(other);
    if (session != speaker.sessions.end()) {
      session->second.timer.cancel();
      if (session->second.has_pending) --mrai_parked_;
      speaker.sessions.erase(session);
    }
    if (defense_.damping_enabled && held) penalize(self, other);
    // Process asynchronously so failure handling interleaves with traffic;
    // the deferred reselect keeps the failure's causal context.
    scheduler_->after(0, [this, self = self, cause = current_cause()]() {
      obs::EventLog::CauseScope scope(log_, cause);
      reselect(self);
    });
  }
}

void SessionedBgpNetwork::restore_link(NodeId a, NodeId b) {
  if (failed_links_.erase(link_key(a, b)) == 0) return;  // was not down
  // Fresh session: both ends retransmit their current table (here: the one
  // prefix) if export policy allows.
  for (auto [self, other] : {std::pair{a, b}, std::pair{b, a}}) {
    scheduler_->after(0, [this, self = self, cause = current_cause()]() {
      obs::EventLog::CauseScope scope(log_, cause);
      reselect(self);
    });
  }
}

void SessionedBgpNetwork::withdraw_prefix() {
  require(started_, "withdraw_prefix: network not started");
  if (origins_.erase(destination_) == 0) return;
  reselect(destination_);
}

void SessionedBgpNetwork::announce_prefix() {
  require(started_, "announce_prefix: network not started");
  if (!origins_.insert(destination_).second) return;
  reselect(destination_);
}

void SessionedBgpNetwork::start_hijack(NodeId node) {
  require(started_, "start_hijack: network not started");
  require(node < graph_->node_count(), "start_hijack: node out of range");
  require(node != destination_,
          "start_hijack: the origin cannot hijack its own prefix");
  if (!origins_.insert(node).second) return;
  reselect(node);
}

void SessionedBgpNetwork::end_hijack(NodeId node) {
  require(node != destination_, "end_hijack: not a hijacker");
  if (origins_.erase(node) == 0) return;
  reselect(node);
}

std::vector<std::pair<NodeId, NodeId>> SessionedBgpNetwork::failed_links()
    const {
  std::vector<std::pair<NodeId, NodeId>> links;
  links.reserve(failed_links_.size());
  for (const std::uint64_t key : failed_links_) {
    links.emplace_back(static_cast<NodeId>(key >> 32),
                       static_cast<NodeId>(key & 0xffffffffu));
  }
  return links;
}

SessionedBgpNetwork::RibFootprint SessionedBgpNetwork::rib_footprint() const {
  // Red-black tree node: three child/parent pointers plus the color word,
  // preceding the value (libstdc++ _Rb_tree_node layout).
  auto set_bytes = [](const auto& set) {
    using Value = typename std::decay_t<decltype(set)>::value_type;
    return static_cast<std::uint64_t>(set.size()) *
           (sizeof(Value) + 4 * sizeof(void*));
  };
  RibFootprint fp;
  fp.rib_bytes += vector_bytes(speakers_);
  // The interned path table is shared by every Adj-RIB-In, so it is counted
  // once network-wide (it replaces the per-entry path vectors).
  fp.aspath_bytes = paths_.memory_bytes();
  fp.rib_bytes += fp.aspath_bytes;
  for (const Speaker& speaker : speakers_) {
    fp.routes += speaker.adj_in.size();
    std::uint64_t bytes = hash_map_bytes(speaker.adj_in);
    bytes += set_bytes(speaker.advertised_to);
    bytes += hash_map_bytes(speaker.sessions);
    for (const auto& [to, out] : speaker.sessions)
      bytes += vector_bytes(out.pending) + vector_bytes(out.last_sent);
    bytes += hash_map_bytes(speaker.damping);
    fp.rib_bytes += bytes;
  }
  return fp;
}

}  // namespace miro::bgp
