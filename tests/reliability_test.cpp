// The control plane under message loss, duplication, and reordering:
// retransmission with backoff, responder idempotence, upstream keep-alive
// liveness with failover, hold-down re-negotiation, and the soft-state
// backstops for lost teardowns and stale confirms (Section 4.3).
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/protocol.hpp"
#include "core/route_store.hpp"
#include "core/tunnel_monitor.hpp"
#include "netsim/fault_injection.hpp"
#include "scenarios.hpp"

namespace miro::core {
namespace {

using test::Figure31Topology;

struct Harness {
  Figure31Topology fig;
  RouteStore store{fig.graph};
  sim::Scheduler scheduler;
  Bus bus{scheduler};
  sim::FaultPlane plane{1};

  Harness() { bus.set_fault_plane(&plane); }
};

// A's standard avoid-E request toward F, answered by B with the BCF peer
// route (Figure 3.1).
std::uint64_t avoid_e_request(Harness& h, MiroAgent& a,
                              std::optional<NegotiationOutcome>& outcome,
                              std::size_t* callbacks = nullptr) {
  return a.request(h.fig.b, h.fig.a, h.fig.f, h.fig.e, std::nullopt,
                   [&outcome, callbacks](const NegotiationOutcome& o) {
                     outcome = o;
                     if (callbacks) ++*callbacks;
                   });
}

// ---------------------------------------------------------- retransmission

TEST(Retransmission, RecoversFromALostRouteRequest) {
  Harness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  // Drop everything while the initial RouteRequest goes out, then heal; the
  // retransmission (first retry fires at >= 40 ticks) must rescue it.
  h.plane.set_default_profile({/*drop=*/1.0, 0.0, 0});
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome);
  h.scheduler.run_until(5);
  h.plane.set_default_profile({});
  h.scheduler.run_until(1500);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->established);
  EXPECT_GE(a.stats().retransmissions, 1u);
  EXPECT_EQ(b.stats().tunnels_established, 1u);
}

TEST(Retransmission, RecoversFromALostTunnelAccept) {
  Harness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome);
  // Timeline with the default 10-tick link delay: request arrives at 10,
  // offers at 20, the accept goes out at 20. Kill exactly that window.
  h.scheduler.run_until(15);
  h.plane.set_default_profile({1.0, 0.0, 0});
  h.scheduler.run_until(25);
  h.plane.set_default_profile({});
  h.scheduler.run_until(1500);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->established);
  EXPECT_GE(a.stats().retransmissions, 1u);
  EXPECT_EQ(b.tunnels().active_count(), 1u);
}

TEST(Retransmission, GivesUpAfterMaxRetriesViaTheTimeoutBackstop) {
  Harness h;
  SoftStateConfig ss;
  ss.max_retries = 3;
  MiroAgent a(h.fig.a, h.store, h.bus, {}, ss);
  // No agent at B; every copy vanishes. The retry counter must cap and the
  // kNegotiationTimeout backstop must fire the callback exactly once.
  std::size_t callbacks = 0;
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome, &callbacks);
  h.scheduler.run_until(10000);
  EXPECT_EQ(callbacks, 1u);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->established);
  EXPECT_EQ(a.stats().retransmissions, 3u);
  EXPECT_EQ(a.stats().negotiations_abandoned, 1u);
}

// ------------------------------------------------------------- idempotence

TEST(Idempotence, DuplicatedAcceptNeverMintsASecondTunnel) {
  Harness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  const auto id = avoid_e_request(h, a, outcome);
  h.scheduler.run_until(500);
  ASSERT_TRUE(outcome && outcome->established);
  ASSERT_EQ(b.stats().tunnels_established, 1u);

  // Replay A's TunnelAccept verbatim — as a duplicating network would.
  h.bus.send(h.fig.a, h.fig.b,
             TunnelAccept{id, outcome->route, outcome->cost});
  h.scheduler.run_until(1000);
  EXPECT_EQ(b.stats().tunnels_established, 1u);  // no second tunnel
  EXPECT_EQ(b.tunnels().active_count(), 1u);
  EXPECT_GE(b.stats().duplicates_suppressed, 1u);
  // B re-sent the cached confirm; A must recognize it as a duplicate and
  // keep exactly one upstream record rather than tearing anything down.
  EXPECT_GE(a.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(a.upstream_tunnels().size(), 1u);
  EXPECT_EQ(a.stats().stale_confirms_reclaimed, 0u);
}

TEST(Idempotence, CertainDuplicationStillYieldsExactlyOneTunnel) {
  Harness h;
  h.plane.set_default_profile({0.0, /*duplicate=*/1.0, 0});
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  std::size_t callbacks = 0;
  avoid_e_request(h, a, outcome, &callbacks);
  h.scheduler.run_until(1500);
  EXPECT_EQ(callbacks, 1u);
  ASSERT_TRUE(outcome && outcome->established);
  EXPECT_EQ(b.stats().tunnels_established, 1u);
  EXPECT_EQ(b.tunnels().active_count(), 1u);
  EXPECT_EQ(a.upstream_tunnels().size(), 1u);
  EXPECT_GE(a.stats().duplicates_suppressed + b.stats().duplicates_suppressed,
            1u);
}

// -------------------------------------------- timeout / late-confirm race

TEST(TimeoutRace, LateConfirmAfterTimeoutIsReclaimedWithATeardown) {
  // Regression for the pending-negotiation timeout path: the timeout fires
  // first (once), and the confirm that limps in afterwards must not revive
  // the negotiation — it is answered with a teardown so the responder's
  // freshly minted tunnel does not linger as an orphan.
  Harness h;
  SoftStateConfig slow;
  slow.max_retries = 0;        // keep the timeline single-shot
  SoftStateConfig patient = slow;
  patient.expiry_timeout = 50000;  // expiry must not mask the teardown path
  MiroAgent a(h.fig.a, h.store, h.bus, {}, slow);
  MiroAgent b(h.fig.b, h.store, h.bus, {}, patient);
  // 600 ticks per hop: request 600, offers 1200, accept 1800 (tunnel minted),
  // confirm 2400 — after the 2000-tick negotiation timeout.
  h.bus.set_delay(h.fig.a, h.fig.b, 600);
  std::size_t callbacks = 0;
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome, &callbacks);
  h.scheduler.run_until(2100);
  ASSERT_TRUE(outcome.has_value());  // the timeout won the race
  EXPECT_FALSE(outcome->established);
  EXPECT_EQ(a.stats().negotiations_abandoned, 1u);
  EXPECT_EQ(b.stats().tunnels_established, 1u);  // minted at 1800

  h.scheduler.run_until(4000);  // late confirm at 2400, teardown back at 3000
  EXPECT_EQ(callbacks, 1u);     // the stale closure never double-fires
  EXPECT_EQ(a.stats().stale_confirms_reclaimed, 1u);
  EXPECT_EQ(a.upstream_tunnels().size(), 0u);
  EXPECT_EQ(b.tunnels().active_count(), 0u);
  EXPECT_EQ(b.stats().tunnels_torn_down, 1u);  // reclaimed, not expired
}

TEST(TimeoutRace, ConfirmJustBeforeTimeoutWinsAndTimeoutStaysSilent) {
  Harness h;
  SoftStateConfig ss;
  ss.max_retries = 0;
  MiroAgent a(h.fig.a, h.store, h.bus, {}, ss);
  MiroAgent b(h.fig.b, h.store, h.bus, {}, ss);
  // 490 per hop: confirm lands at 1960, just inside the 2000 timeout.
  h.bus.set_delay(h.fig.a, h.fig.b, 490);
  std::size_t callbacks = 0;
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome, &callbacks);
  h.scheduler.run_until(5000);
  EXPECT_EQ(callbacks, 1u);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->established);
  EXPECT_EQ(a.stats().negotiations_abandoned, 0u);
}

// ---------------------------------------------------------------- failover

TEST(Failover, MissedKeepAliveAcksFailTheTunnelOver) {
  Harness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome);
  std::vector<TunnelLostEvent> lost;
  a.on_tunnel_lost([&lost](const TunnelLostEvent& e) { lost.push_back(e); });
  h.scheduler.run_until(100);
  ASSERT_TRUE(outcome && outcome->established);

  h.bus.set_link_down(h.fig.a, h.fig.b, true);  // acks stop coming back
  h.scheduler.run_until(5000);
  EXPECT_EQ(a.upstream_tunnels().size(), 0u);  // reverted to the BGP default
  EXPECT_EQ(a.stats().tunnels_failed_over, 1u);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].tunnel_id, outcome->tunnel_id);
  EXPECT_EQ(lost[0].responder, h.fig.b);
  EXPECT_EQ(lost[0].destination, h.fig.f);
  EXPECT_EQ(lost[0].reason, TunnelLostEvent::Reason::MissedKeepAlives);
  EXPECT_FALSE(lost[0].will_renegotiate);  // auto_renegotiate defaults off
  EXPECT_EQ(b.stats().tunnels_expired, 1u);  // downstream soft state too
}

TEST(Failover, ResponderResetIsDetectedByTheNackedKeepAlive) {
  Harness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome);
  std::vector<TunnelLostEvent> lost;
  a.on_tunnel_lost([&lost](const TunnelLostEvent& e) { lost.push_back(e); });
  h.scheduler.run_until(100);
  ASSERT_TRUE(outcome && outcome->established);

  // The responder loses the tunnel out from under A (operator reset); the
  // next keep-alive is answered alive=false and A must fail over at once,
  // well before the miss threshold could trigger.
  h.bus.send(h.fig.c, h.fig.b, TunnelTeardown{outcome->tunnel_id});
  h.scheduler.run_until(400);
  EXPECT_EQ(a.upstream_tunnels().size(), 0u);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].reason, TunnelLostEvent::Reason::ResponderReset);
}

TEST(Failover, AutoRenegotiationRestoresTheTunnelAfterHoldDown) {
  Harness h;
  SoftStateConfig ss;
  ss.auto_renegotiate = true;
  ss.renegotiate_hold_down = 500;
  MiroAgent a(h.fig.a, h.store, h.bus, {}, ss);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome);
  std::vector<TunnelLostEvent> lost;
  a.on_tunnel_lost([&lost](const TunnelLostEvent& e) { lost.push_back(e); });
  std::optional<NegotiationOutcome> renegotiated;
  a.on_renegotiated(
      [&renegotiated](const NegotiationOutcome& o) { renegotiated = o; });
  h.scheduler.run_until(100);
  ASSERT_TRUE(outcome && outcome->established);

  h.bus.set_link_down(h.fig.a, h.fig.b, true);
  h.scheduler.run_until(500);  // miss threshold reached, tunnel lost
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_TRUE(lost[0].will_renegotiate);
  EXPECT_EQ(a.upstream_tunnels().size(), 0u);

  h.bus.set_link_down(h.fig.a, h.fig.b, false);  // heal within hold-down
  h.scheduler.run_until(3000);
  EXPECT_EQ(a.stats().renegotiations, 1u);
  ASSERT_TRUE(renegotiated.has_value());
  EXPECT_TRUE(renegotiated->established);
  EXPECT_EQ(a.upstream_tunnels().size(), 1u);  // back on the alternate path
  EXPECT_EQ(b.tunnels().active_count(), 1u);
}

TEST(Failover, HoldDownCoalescesSimultaneousLossesIntoOneRenegotiation) {
  Harness h;
  SoftStateConfig ss;
  ss.auto_renegotiate = true;
  ss.renegotiate_hold_down = 500;
  ResponderConfig open;
  open.policy = ExportPolicy::Flexible;
  MiroAgent a(h.fig.a, h.store, h.bus, {}, ss);
  MiroAgent b(h.fig.b, h.store, h.bus, open);
  // Two tunnels to the same (responder, destination): when the link dies
  // both fail over back-to-back, but the hold-down window must admit only
  // one replacement negotiation — the anti-flap guard.
  std::optional<NegotiationOutcome> first, second;
  avoid_e_request(h, a, first);
  a.request(h.fig.b, h.fig.a, h.fig.f, std::nullopt, std::nullopt,
            [&second](const NegotiationOutcome& o) { second = o; });
  h.scheduler.run_until(100);
  ASSERT_TRUE(first && first->established);
  ASSERT_TRUE(second && second->established);
  ASSERT_EQ(a.upstream_tunnels().size(), 2u);

  h.bus.set_link_down(h.fig.a, h.fig.b, true);
  h.scheduler.run_until(5000);
  EXPECT_EQ(a.stats().tunnels_failed_over, 2u);
  EXPECT_LE(a.stats().renegotiations, 1u);
}

TEST(Failover, TunnelMonitorHandsBackTheLostRecord) {
  // The agent's liveness verdict plugs into the routing-change monitor: the
  // lost callback unwatches the tunnel and recovers its negotiation intent.
  Harness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome);
  h.scheduler.run_until(100);
  ASSERT_TRUE(outcome && outcome->established);

  TunnelMonitor monitor;
  monitor.watch({outcome->tunnel_id, h.fig.a, h.fig.b, h.fig.f,
                 outcome->route.path, h.fig.e, false});
  std::optional<TunnelMonitor::WatchedTunnel> recovered;
  a.on_tunnel_lost([&](const TunnelLostEvent& e) {
    recovered = monitor.on_tunnel_lost(e.responder, e.tunnel_id);
  });
  h.bus.set_link_down(h.fig.a, h.fig.b, true);
  h.scheduler.run_until(5000);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->id, outcome->tunnel_id);
  EXPECT_EQ(recovered->must_avoid, std::optional<NodeId>(h.fig.e));
  EXPECT_EQ(monitor.watched_count(), 0u);
  EXPECT_FALSE(monitor.on_tunnel_lost(h.fig.b, outcome->tunnel_id));
}

// ------------------------------------------------------------ lost teardown

TEST(LostTeardown, BothSidesConvergeToZeroStateViaSoftStateExpiry) {
  // "The active tunnel tear-down message itself may not be able to reach
  // AS B" (Section 4.3): partition the link, tear down anyway, and verify
  // no upstream_/tunnels_ entry leaks on either side.
  Harness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome);
  h.scheduler.run_until(100);
  ASSERT_TRUE(outcome && outcome->established);
  ASSERT_EQ(b.tunnels().active_count(), 1u);

  h.bus.set_link_down(h.fig.a, h.fig.b, true);
  a.teardown(outcome->tunnel_id);
  EXPECT_EQ(a.upstream_tunnels().size(), 0u);  // local state goes at once
  h.scheduler.run_until(10000);
  EXPECT_EQ(b.tunnels().active_count(), 0u);
  EXPECT_EQ(b.stats().tunnels_torn_down, 0u);  // no teardown ever arrived
  EXPECT_EQ(b.stats().tunnels_expired, 1u);    // soft state did the cleanup
  EXPECT_EQ(a.stats().tunnels_failed_over, 0u);  // keep-alives stopped cleanly
}

TEST(LostTeardown, RetransmittedTeardownLandsWhenOnlyTheFirstCopyIsLost) {
  Harness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  avoid_e_request(h, a, outcome);
  h.scheduler.run_until(100);
  ASSERT_TRUE(outcome && outcome->established);

  // Drop the first teardown copy; a blind retransmission (no ack exists for
  // teardown) must still reach B well before soft-state expiry would.
  h.plane.set_default_profile({1.0, 0.0, 0});
  a.teardown(outcome->tunnel_id);
  h.scheduler.run_until(120);
  h.plane.set_default_profile({});
  h.scheduler.run_until(300);  // < expiry_timeout after the last heartbeat
  EXPECT_EQ(b.tunnels().active_count(), 0u);
  EXPECT_EQ(b.stats().tunnels_torn_down, 1u);  // the retransmit, not expiry
  EXPECT_GE(a.stats().retransmissions, 1u);
}

}  // namespace
}  // namespace miro::core
