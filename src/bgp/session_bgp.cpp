#include "bgp/session_bgp.hpp"

#include <algorithm>
#include <cmath>

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
      classes_(1, RouteClass::Provider),  // the kNullPath sentinel
      best_(graph.node_count(), kNullPath),
      origin_(graph.node_count(), 0),
      sessions_(graph.half_edge_count()),
      reverse_(graph.half_edge_count()) {
  require(destination < graph.node_count(),
          "SessionedBgpNetwork: destination out of range");
  // pack_key keeps a path length below 2^30 in its middle bits.
  require(graph.node_count() < (std::size_t{1} << 30),
          "SessionedBgpNetwork: graph too large");
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
    damping_.resize(graph.half_edge_count());
  }
  if (defense_.mrai != 0) mrai_.resize(graph.half_edge_count());
  for (NodeId n = 0; n < graph.node_count(); ++n) {
    HalfEdge h = graph.first_half_edge(n);
    for (const topo::Neighbor& m : graph.neighbors(n))
      reverse_[h++] = graph.half_edge(m.node, n);
  }
  origin_[destination_] = 1;
  origin_count_ = 1;
}

SessionedBgpNetwork::HalfEdge SessionedBgpNetwork::find_half_edge(
    NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  return graph_->has_edge(a, b) ? graph_->half_edge(a, b) : kNoHalfEdge;
}

RouteClass SessionedBgpNetwork::best_class(NodeId node) const {
  const PathId path = best_path(node);
  require(path != kNullPath, "SessionedBgpNetwork::best_class: no route");
  return classes_[path];
}

Route SessionedBgpNetwork::best(NodeId node) const {
  const PathId path = best_path(node);
  require(path != kNullPath, "SessionedBgpNetwork::best: no route");
  return Route{paths_.materialize(path), classes_[path]};
}

std::vector<NodeId> SessionedBgpNetwork::adj_in_path(NodeId node,
                                                     NodeId from) const {
  const HalfEdge h = find_half_edge(node, from);
  return h == kNoHalfEdge ? std::vector<NodeId>{}
                          : paths_.materialize(sessions_[h].adj_in);
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

void SessionedBgpNetwork::send(NodeId from, HalfEdge h, PathId path,
                               bool replaces) {
  if (path == kNullPath) {
    ++stats_.withdrawals_sent;
  } else {
    ++stats_.updates_sent;
  }
  obs::EventId sent_id = 0;
  if (log_ != nullptr) {
    const obs::EventKind kind =
        path == kNullPath ? obs::EventKind::Withdraw
                          : (replaces ? obs::EventKind::ImplicitWithdraw
                                      : obs::EventKind::Announce);
    sent_id = record(kind, from, graph_->half_edge_target(h).node,
                     paths_.length(path));
  }
  ++messages_in_flight_;
  scheduler_->after(kLinkDelay, [this, from, h, path, sent_id]() {
    deliver(from, h, path, sent_id);
  });
}

void SessionedBgpNetwork::deliver(NodeId from, HalfEdge h, PathId path,
                                  obs::EventId sent_id) {
  --messages_in_flight_;
  const NodeId to = graph_->half_edge_target(h).node;
  // A message in flight across a link that failed meanwhile is lost; the
  // session-down handling already flushed the receiver's state.
  if (!sessions_[h].up) {
    ++stats_.lost_in_flight;
    if (log_ != nullptr) {
      obs::EventLog::CauseScope loss_scope(log_, sent_id);
      record(obs::EventKind::Loss, to, from, paths_.length(path));
    }
    return;
  }
  if (path == kNullPath) {
    ++stats_.delivered_withdrawals;
  } else {
    ++stats_.delivered_updates;
  }
  obs::EventId deliver_id = 0;
  if (log_ != nullptr) {
    obs::EventLog::CauseScope deliver_scope(log_, sent_id);
    deliver_id =
        record(obs::EventKind::Deliver, to, from, paths_.length(path));
  }
  // Everything the receiver does in reaction — damping, reselect, further
  // sends — descends causally from this delivery.
  obs::EventLog::CauseScope scope(log_, deliver_id);
  const HalfEdge back = reverse_[h];
  if (message_observer_) message_observer_(back, path);
  receive(to, back, path);
}

void SessionedBgpNetwork::enqueue(NodeId from, HalfEdge h, PathId path,
                                  bool replaces) {
  if (defense_.mrai == 0) {
    send(from, h, path, replaces);
    return;
  }
  MraiState& out = mrai_[h];
  if (!out.armed) {
    // With per-session wire truth available, classify against it rather
    // than the caller's RIB-level approximation.
    const bool wire_replaces =
        out.last_sent != kNullPath && path != kNullPath;
    out.last_sent = path;
    out.has_pending = false;
    out.pending = kNullPath;
    out.pending_cause = 0;
    send(from, h, path, wire_replaces);
    arm_mrai(from, h);
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
      record(obs::EventKind::MraiCoalesce, from,
             graph_->half_edge_target(h).node, paths_.length(out.pending));
    }
  }
  if (path == out.last_sent) {
    if (out.has_pending) --mrai_parked_;
    out.has_pending = false;
    out.pending = kNullPath;
    out.pending_cause = 0;
    return;
  }
  if (!out.has_pending) ++mrai_parked_;
  out.has_pending = true;
  out.pending = path;
  out.pending_cause = current_cause();
}

void SessionedBgpNetwork::arm_mrai(NodeId from, HalfEdge h) {
  MraiState& out = mrai_[h];
  out.armed = true;
  out.timer = scheduler_->after(
      defense_.mrai, [this, from, h]() { mrai_expired(from, h); });
}

void SessionedBgpNetwork::mrai_expired(NodeId from, HalfEdge h) {
  MraiState& session = mrai_[h];
  session.armed = false;
  if (!session.has_pending) return;
  const PathId path = session.pending;
  session.pending = kNullPath;
  session.has_pending = false;
  const obs::EventId cause = session.pending_cause;
  session.pending_cause = 0;
  --mrai_parked_;
  if (!sessions_[h].up) return;  // session died while parked
  const bool replaces = session.last_sent != kNullPath && path != kNullPath;
  session.last_sent = path;
  // The delayed send still belongs to the cause that parked the message.
  obs::EventLog::CauseScope scope(log_, cause);
  send(from, h, path, replaces);
  arm_mrai(from, h);
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

bool SessionedBgpNetwork::penalize(NodeId node, HalfEdge h) {
  DampingState& state = damping_[h];
  const sim::Time now = scheduler_->now();
  decay_penalty(state, now);
  state.penalty =
      std::min(state.penalty + defense_.damping_penalty,
               defense_.damping_ceiling);
  if (state.suppressed) {
    // Extend the quarantine: the penalty grew, so the reuse point moved.
    state.reuse_timer.cancel();
    schedule_reuse(node, h);
    return false;
  }
  if (state.penalty >= defense_.damping_suppress) {
    state.suppressed = true;
    ++stats_.routes_damped;
    ++active_suppressions_;
    schedule_reuse(node, h);
    return true;
  }
  return false;
}

void SessionedBgpNetwork::schedule_reuse(NodeId node, HalfEdge h) {
  DampingState& state = damping_[h];
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
      [this, node, h, cause = current_cause()]() {
        obs::EventLog::CauseScope scope(log_, cause);
        reuse_due(node, h);
      });
}

void SessionedBgpNetwork::reuse_due(NodeId node, HalfEdge h) {
  DampingState& state = damping_[h];
  if (!state.suppressed) return;
  decay_penalty(state, scheduler_->now());
  if (state.penalty > defense_.damping_reuse) {
    schedule_reuse(node, h);  // rounding guard; rarely taken
    return;
  }
  state.suppressed = false;
  --active_suppressions_;
  reselect(node);
}

bool SessionedBgpNetwork::is_suppressed(NodeId node, NodeId from) const {
  const HalfEdge h = find_half_edge(node, from);
  return h != kNoHalfEdge && suppressed(h);
}

double SessionedBgpNetwork::damping_penalty_of(NodeId node,
                                               NodeId from) const {
  const HalfEdge h = find_half_edge(node, from);
  if (h == kNoHalfEdge || !defense_.damping_enabled) return 0;
  DampingState copy = damping_[h];
  decay_penalty(copy, scheduler_->now());
  return copy.penalty;
}

std::uint64_t SessionedBgpNetwork::pack_key(NodeId node, NodeId from,
                                            Relationship link,
                                            PathId path) const {
  // Implicit import policy: reject looping paths — a parent-chain walk.
  if (paths_.contains(path, node)) return kNoKey;
  // path_class([node] + path) == classify(link, path_class(path)), and the
  // sender's class is recorded with its path. Distinct neighbors never tie
  // on AS number, so this key orders candidates exactly as prefer() does.
  const RouteClass cls = classify(link, classes_[path]);
  return (static_cast<std::uint64_t>(rank(cls)) << 62) |
         (static_cast<std::uint64_t>(paths_.length(path)) << 32) |
         graph_->as_number(from);
}

PathId SessionedBgpNetwork::intern_best(NodeId node, PathId suffix,
                                        RouteClass cls) {
  const PathId id = paths_.extend(node, suffix);
  if (id == classes_.size()) classes_.push_back(cls);
  return id;
}

void SessionedBgpNetwork::receive(NodeId node, HalfEdge h, PathId incoming) {
  Session& session = sessions_[h];
  bool flap = false;
  if (defense_.damping_enabled) {
    const bool had = session.adj_in != kNullPath;
    if (incoming == kNullPath) {
      flap = had;  // withdrawal of a held route
    } else if (had) {
      flap = session.adj_in != incoming;  // attribute/path change
    } else {
      // Re-announcement after a withdrawal; the initial announcement of a
      // never-seen route carries no penalty (RFC 2439 §4.4.2 shape).
      flap = damping_[h].was_known;
    }
  }
  session.adj_in = incoming;
  if (incoming == kNullPath) {
    session.key = kNoKey;
  } else {
    const topo::Neighbor from = graph_->half_edge_target(h);
    session.key = pack_key(node, from.node, from.rel, incoming);
    if (defense_.damping_enabled) damping_[h].was_known = true;
  }
  if (flap) {
    const bool just_suppressed = penalize(node, h);
    if (!just_suppressed && damping_[h].suppressed) {
      // Absorbed: the pair is quarantined, nothing propagates.
      ++stats_.updates_suppressed;
      if (log_ != nullptr) {
        record(obs::EventKind::DampingSuppress, node,
               graph_->half_edge_target(h).node, 0);
      }
      return;
    }
    // On the suppression edge fall through: one reselect expels the route.
  }
  reselect(node);
}

void SessionedBgpNetwork::reselect(NodeId node) {
  ++stats_.selections;
  const HalfEdge first = graph_->first_half_edge(node);
  const HalfEdge last = first + static_cast<HalfEdge>(graph_->degree(node));
  const PathId current = best_[node];

  PathId next = kNullPath;
  if (origin_[node] != 0) {
    next = intern_best(node, kNullPath, RouteClass::Self);
  } else {
    // The cached keys order the candidates as prefer() would; links that
    // are down and flap-damped entries are out of the running.
    std::uint64_t best_key = kNoKey;
    HalfEdge via = kNoHalfEdge;
    for (HalfEdge h = first; h < last; ++h) {
      const Session& session = sessions_[h];
      if (session.key < best_key && session.up && !suppressed(h)) {
        best_key = session.key;
        via = h;
      }
    }
    if (via != kNoHalfEdge) {
      const PathId suffix = sessions_[via].adj_in;
      // The same suffix is the same candidate: keep the interned best
      // without probing the table.
      next = current != kNullPath && paths_.suffix(current) == suffix
                 ? current
                 : intern_best(node, suffix,
                               static_cast<RouteClass>(best_key >> 62));
    }
  }

  const bool changed = next != current;
  if (changed) {
    best_[node] = next;
    obs::EventId changed_id = 0;
    if (log_ != nullptr) {
      std::uint64_t hash = 0;
      if (next != kNullPath) {
        paths_.materialize_into(next, hash_scratch_);
        hash = obs::hash_path(hash_scratch_);
      }
      changed_id = record(obs::EventKind::BestChanged, node, 0,
                          paths_.length(next), hash);
    }
    if (observer_) {
      // A tunnel the observer tears down descends from this route change.
      obs::EventLog::CauseScope scope(log_, changed_id);
      observer_(node, next);
    }
  }

  // Export processing: advertise on change or on a fresh session; withdraw
  // when the route became unexportable or disappeared. Unchanged routes are
  // not re-sent ("updates are sent only when the route changes").
  for (HalfEdge h = first; h < last; ++h) {
    Session& session = sessions_[h];
    if (!session.up) continue;
    const bool exportable =
        next != kNullPath &&
        conventional_export_allows(classes_[next],
                                   graph_->half_edge_target(h).rel);
    if (exportable) {
      const bool fresh_session = !session.advertised;
      session.advertised = true;
      if (changed || fresh_session) enqueue(node, h, next, !fresh_session);
    } else if (session.advertised) {
      session.advertised = false;
      enqueue(node, h, kNullPath, false);  // withdraw
    }
  }
}

void SessionedBgpNetwork::reselect_later(NodeId node) {
  // Processed asynchronously so session changes interleave with traffic;
  // the deferred reselect keeps the triggering causal context.
  scheduler_->after(0, [this, node, cause = current_cause()]() {
    obs::EventLog::CauseScope scope(log_, cause);
    reselect(node);
  });
}

void SessionedBgpNetwork::fail_link(NodeId a, NodeId b) {
  require(graph_->has_edge(a, b), "fail_link: no such link");
  const HalfEdge ab = graph_->half_edge(a, b);
  if (!sessions_[ab].up) return;  // already down
  const HalfEdge ba = reverse_[ab];
  sessions_[ab].up = false;
  sessions_[ba].up = false;
  // Session down: both sides flush what they learned over it, the
  // Adj-RIB-Out presence bit, and any parked MRAI message, then re-run
  // selection (which propagates any change as updates/withdrawals to the
  // remaining neighbors). The implicit withdrawal of a held route counts as
  // a flap for damping purposes, so a link that flaps up and down is
  // eventually quarantined just like a flapping announcement.
  for (const auto& [self, h] : {std::pair{a, ab}, std::pair{b, ba}}) {
    Session& session = sessions_[h];
    const bool held = session.adj_in != kNullPath;
    session.adj_in = kNullPath;
    session.key = kNoKey;
    session.advertised = false;
    if (defense_.mrai != 0) {
      MraiState& out = mrai_[h];
      out.timer.cancel();
      if (out.has_pending) --mrai_parked_;
      out = MraiState{};
    }
    if (defense_.damping_enabled && held) penalize(self, h);
    reselect_later(self);
  }
}

void SessionedBgpNetwork::restore_link(NodeId a, NodeId b) {
  const HalfEdge ab = find_half_edge(a, b);
  if (ab == kNoHalfEdge || sessions_[ab].up) return;  // was not down
  sessions_[ab].up = true;
  sessions_[reverse_[ab]].up = true;
  // Fresh session: both ends retransmit their current table (here: the one
  // prefix) if export policy allows.
  reselect_later(a);
  reselect_later(b);
}

void SessionedBgpNetwork::withdraw_prefix() {
  require(started_, "withdraw_prefix: network not started");
  if (origin_[destination_] == 0) return;
  origin_[destination_] = 0;
  --origin_count_;
  reselect(destination_);
}

void SessionedBgpNetwork::announce_prefix() {
  require(started_, "announce_prefix: network not started");
  if (origin_[destination_] != 0) return;
  origin_[destination_] = 1;
  ++origin_count_;
  reselect(destination_);
}

void SessionedBgpNetwork::start_hijack(NodeId node) {
  require(started_, "start_hijack: network not started");
  require(node < graph_->node_count(), "start_hijack: node out of range");
  require(node != destination_,
          "start_hijack: the origin cannot hijack its own prefix");
  if (origin_[node] != 0) return;
  origin_[node] = 1;
  ++origin_count_;
  reselect(node);
}

void SessionedBgpNetwork::end_hijack(NodeId node) {
  require(node != destination_, "end_hijack: not a hijacker");
  if (node >= graph_->node_count() || origin_[node] == 0) return;
  origin_[node] = 0;
  --origin_count_;
  reselect(node);
}

std::vector<std::pair<NodeId, NodeId>> SessionedBgpNetwork::failed_links()
    const {
  std::vector<std::pair<NodeId, NodeId>> links;
  for (NodeId a = 0; a < graph_->node_count(); ++a) {
    HalfEdge h = graph_->first_half_edge(a);
    for (const topo::Neighbor& b : graph_->neighbors(a)) {
      if (a < b.node && !sessions_[h].up) links.emplace_back(a, b.node);
      ++h;
    }
  }
  return links;
}

SessionedBgpNetwork::RibFootprint SessionedBgpNetwork::rib_footprint() const {
  RibFootprint fp;
  for (const Session& session : sessions_)
    if (session.adj_in != kNullPath) ++fp.routes;
  // The interned path table is shared by every Adj-RIB-In and every wire
  // message, so it is counted once network-wide.
  fp.aspath_bytes = paths_.memory_bytes();
  fp.rib_bytes = fp.aspath_bytes + vector_bytes(classes_) +
                 vector_bytes(best_) + vector_bytes(origin_) +
                 vector_bytes(sessions_) + vector_bytes(reverse_) +
                 vector_bytes(mrai_) + vector_bytes(damping_);
  return fp;
}

}  // namespace miro::bgp
