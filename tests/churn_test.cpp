#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "bgp/route_solver.hpp"
#include "churn/churn_trace.hpp"
#include "churn/invariant_checker.hpp"
#include "churn/replayer.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "obs/ribmon.hpp"
#include "scenarios.hpp"
#include "topology/generator.hpp"

namespace miro::churn {
namespace {

using test::Figure31Topology;

ChurnTraceConfig small_config(std::uint64_t seed = 7) {
  ChurnTraceConfig config;
  config.duration = 6000;
  config.episodes = 25;
  config.min_hold = 40;
  config.max_hold = 300;
  config.seed = seed;
  return config;
}

TEST(ChurnTrace, GenerationIsDeterministicAndValid) {
  Figure31Topology fig;
  const ChurnTrace one = generate_churn_trace(fig.graph, fig.f, small_config());
  const ChurnTrace two = generate_churn_trace(fig.graph, fig.f, small_config());
  EXPECT_EQ(one.events, two.events);
  EXPECT_FALSE(one.events.empty());
  EXPECT_NO_THROW(one.validate(fig.graph));
  EXPECT_TRUE(std::is_sorted(one.events.begin(), one.events.end(),
                             [](const ChurnEvent& x, const ChurnEvent& y) {
                               return x.time < y.time;
                             }));
  // Different seed, different script.
  const ChurnTrace other =
      generate_churn_trace(fig.graph, fig.f, small_config(8));
  EXPECT_NE(one.events, other.events);
}

TEST(ChurnTrace, JsonRoundTripPreservesEverything) {
  Figure31Topology fig;
  const ChurnTrace trace =
      generate_churn_trace(fig.graph, fig.f, small_config());
  const ChurnTrace back = ChurnTrace::parse(trace.dump());
  EXPECT_EQ(back.destination, trace.destination);
  EXPECT_EQ(back.seed, trace.seed);
  EXPECT_EQ(back.events, trace.events);
  EXPECT_EQ(back.dump(), trace.dump());
}

TEST(ChurnTrace, ValidateRejectsInconsistentScripts) {
  Figure31Topology fig;
  ChurnTrace trace;
  trace.destination = fig.f;
  trace.events.push_back({10, ChurnEventKind::LinkDown, fig.e, fig.f});
  trace.events.push_back({20, ChurnEventKind::LinkDown, fig.e, fig.f});
  EXPECT_THROW(trace.validate(fig.graph), Error);

  trace.events.clear();
  trace.events.push_back({10, ChurnEventKind::LinkUp, fig.e, fig.f});
  EXPECT_THROW(trace.validate(fig.graph), Error);

  trace.events.clear();
  trace.events.push_back({10, ChurnEventKind::LinkDown, fig.a, fig.f});
  EXPECT_THROW(trace.validate(fig.graph), Error);  // no such edge

  trace.events.clear();
  trace.events.push_back({10, ChurnEventKind::HijackStart, fig.f});
  EXPECT_THROW(trace.validate(fig.graph), Error);  // destination hijack

  trace.events.clear();
  trace.events.push_back({20, ChurnEventKind::PrefixWithdraw});
  trace.events.push_back({10, ChurnEventKind::PrefixAnnounce});
  EXPECT_THROW(trace.validate(fig.graph), Error);  // out of order
}

TEST(ChurnTrace, ParseRejectsNumbersOutsideTheirRange) {
  // Each would be undefined behaviour if cast unchecked.
  const std::string events = R"({"destination":5,"events":[{"t":)";
  for (const std::string& text : {
           std::string(R"({"destination":1e20,"events":[]})"),
           std::string(R"({"destination":-1,"events":[]})"),
           std::string(R"({"destination":5,"seed":1e30,"events":[]})"),
           events + R"(1e30,"kind":"prefix_withdraw"}]})",
           events + R"(-1,"kind":"prefix_withdraw"}]})",
           events + R"(1,"kind":"link_down","a":4294967296,"b":5}]})",
           events + R"(1,"kind":"link_down","a":4.5,"b":5}]})",
       }) {
    EXPECT_THROW(ChurnTrace::parse(text), Error) << text;
  }
}

TEST(ChurnReplay, RefusesATraceSpanningTooManyCheckpoints) {
  Figure31Topology fig;
  ChurnTrace trace;
  trace.destination = fig.f;
  trace.events.push_back({sim::Time{1} << 62, ChurnEventKind::PrefixWithdraw});
  trace.events.push_back(
      {(sim::Time{1} << 62) + 1, ChurnEventKind::PrefixAnnounce});
  EXPECT_THROW(replay_churn(fig.graph, trace), Error);
  // Checkpoints off: only the final check runs, so the span is harmless.
  ReplayConfig config;
  config.checkpoint_interval = 0;
  EXPECT_TRUE(replay_churn(fig.graph, trace, config).ok());
  // One interval spans the trace, so it passes the guard; the step after the
  // first checkpoint would wrap past 2^64 and must saturate instead.
  trace.events[0].time = 18'000'000'000'000'000'000u;
  trace.events[1].time = trace.events[0].time + 1;
  config.checkpoint_interval = (sim::Time{1} << 63) + 1;
  const ReplayResult result = replay_churn(fig.graph, trace, config);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.checker.checkpoints, 2u);  // one interim, one final
}

TEST(ChurnReplay, Figure31TraceKeepsAllInvariants) {
  Figure31Topology fig;
  const ChurnTrace trace =
      generate_churn_trace(fig.graph, fig.f, small_config());
  ReplayConfig config;
  config.checkpoint_interval = 100;
  const ReplayResult result = replay_churn(fig.graph, trace, config);
  for (const ChurnViolation& v : result.violations) {
    ADD_FAILURE() << v.property << " at t=" << v.time << " (event "
                  << v.event_index << "): " << v.detail;
  }
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result.convergence.empty());
  EXPECT_GT(result.checker.checkpoints, 0u);
  EXPECT_GT(result.checker.quiet_checkpoints, 0u);
  EXPECT_GT(result.checker.solver_comparisons, 0u);
  EXPECT_GT(result.initial_convergence, 0u);
  for (const ConvergenceSample& s : result.convergence)
    EXPECT_GE(s.settled, s.start);
}

TEST(ChurnReplay, ReplayIsDeterministic) {
  Figure31Topology fig;
  const ChurnTrace trace =
      generate_churn_trace(fig.graph, fig.f, small_config(11));
  ReplayConfig config;
  config.checkpoint_interval = 150;
  const ReplayResult one = replay_churn(fig.graph, trace, config);
  const ReplayResult two = replay_churn(fig.graph, trace, config);
  EXPECT_EQ(one.final_time, two.final_time);
  EXPECT_EQ(one.scheduler_events, two.scheduler_events);
  EXPECT_EQ(one.bgp.updates_sent, two.bgp.updates_sent);
  EXPECT_EQ(one.bgp.withdrawals_sent, two.bgp.withdrawals_sent);
  ASSERT_EQ(one.convergence.size(), two.convergence.size());
  for (std::size_t i = 0; i < one.convergence.size(); ++i) {
    EXPECT_EQ(one.convergence[i].start, two.convergence[i].start);
    EXPECT_EQ(one.convergence[i].settled, two.convergence[i].settled);
    EXPECT_EQ(one.convergence[i].messages, two.convergence[i].messages);
  }
  EXPECT_EQ(one.violations.size(), two.violations.size());
}

TEST(ChurnReplay, GeneratedTopologySurvivesChurnCleanly) {
  topo::GeneratorParams params = topo::profile("tiny");
  params.node_count = 60;
  const topo::AsGraph graph = topo::generate(params);
  ChurnTraceConfig tc = small_config(3);
  tc.episodes = 20;
  const ChurnTrace trace = generate_churn_trace(graph, /*destination=*/0, tc);
  ReplayConfig config;
  config.checkpoint_interval = 250;
  const ReplayResult result = replay_churn(graph, trace, config);
  for (const ChurnViolation& v : result.violations) {
    ADD_FAILURE() << v.property << " at t=" << v.time << " (event "
                  << v.event_index << "): " << v.detail;
  }
  EXPECT_TRUE(result.ok());
}

TEST(ChurnReplay, DefensesOnStillSatisfyInvariants) {
  Figure31Topology fig;
  const ChurnTrace trace =
      generate_churn_trace(fig.graph, fig.f, small_config(5));
  ReplayConfig config;
  config.checkpoint_interval = 100;
  config.defense.mrai = 60;
  config.defense.damping_enabled = true;
  const ReplayResult result = replay_churn(fig.graph, trace, config);
  for (const ChurnViolation& v : result.violations) {
    ADD_FAILURE() << v.property << " at t=" << v.time << " (event "
                  << v.event_index << "): " << v.detail;
  }
  EXPECT_TRUE(result.ok());
}

TEST(ChurnReplay, DampingAndMraiHalveUpdateLoadUnderPersistentFlap) {
  Figure31Topology fig;
  const ChurnTrace trace = make_persistent_flap_trace(
      fig.graph, fig.f, fig.e, fig.f, /*flaps=*/40, /*period=*/80);
  ReplayConfig off;
  off.checkpoint_interval = 0;  // pure throughput comparison
  const ReplayResult baseline = replay_churn(fig.graph, trace, off);

  ReplayConfig on = off;
  on.defense.mrai = 60;
  on.defense.damping_enabled = true;
  const ReplayResult defended = replay_churn(fig.graph, trace, on);

  EXPECT_TRUE(baseline.ok());
  EXPECT_TRUE(defended.ok());
  EXPECT_GT(defended.bgp.routes_damped, 0u);
  EXPECT_GT(defended.bgp.updates_suppressed + defended.bgp.coalesced, 0u);
  // The acceptance bar: defenses cut the network-wide update load >= 2x.
  EXPECT_GE(baseline.bgp.updates_sent, 2 * defended.bgp.updates_sent)
      << "baseline=" << baseline.bgp.updates_sent
      << " defended=" << defended.bgp.updates_sent;
}

TEST(ChurnReplay, HijackAndRecoverReconvergesToTrueOrigin) {
  Figure31Topology fig;
  ChurnTrace trace;
  trace.destination = fig.f;
  trace.events.push_back({200, ChurnEventKind::HijackStart, fig.a});
  trace.events.push_back({900, ChurnEventKind::HijackEnd, fig.a});
  ReplayConfig config;
  config.checkpoint_interval = 50;
  const ReplayResult result = replay_churn(fig.graph, trace, config);
  for (const ChurnViolation& v : result.violations) {
    ADD_FAILURE() << v.property << " at t=" << v.time << " (event "
                  << v.event_index << "): " << v.detail;
  }
  EXPECT_TRUE(result.ok());
  // The final solver comparison ran after the hijack cleared.
  EXPECT_GT(result.checker.solver_comparisons, 0u);
}

TEST(ChurnReplay, WatchedTunnelsAreTornDownWithinHoldDown) {
  Figure31Topology fig;
  ChurnTrace trace;
  trace.destination = fig.f;
  trace.events.push_back({300, ChurnEventKind::LinkDown, fig.e, fig.f});
  trace.events.push_back({1500, ChurnEventKind::LinkUp, fig.e, fig.f});
  ReplayConfig config;
  config.checkpoint_interval = 50;
  config.tunnel_hold_down = 100;
  // A strictly bound tunnel riding B's default B-E-F: the link failure
  // reroutes E and must tear this down via the monitor well inside the
  // hold-down.
  core::TunnelMonitor::WatchedTunnel tunnel;
  tunnel.id = 1;
  tunnel.upstream = fig.a;
  tunnel.responder = fig.b;
  tunnel.destination = fig.f;
  tunnel.bound_path = {fig.b, fig.e, fig.f};
  tunnel.strict_binding = true;
  config.tunnels.push_back(tunnel);
  obs::EventLog log;
  config.log = &log;
  const ReplayResult result = replay_churn(fig.graph, trace, config);
  for (const ChurnViolation& v : result.violations) {
    ADD_FAILURE() << v.property << " at t=" << v.time << " (event "
                  << v.event_index << "): " << v.detail;
  }
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.tunnels_torn, 1u);

  // The §4.3 teardown is on the log and explains itself: its parent chain
  // (ids are 1-based positions) runs back to the t=300 link failure.
  ASSERT_EQ(log.count(obs::EventKind::TunnelInvalidated), 1u);
  const auto& events = log.events();
  const auto invalidated =
      std::find_if(events.begin(), events.end(), [](const obs::Event& e) {
        return e.kind == obs::EventKind::TunnelInvalidated;
      });
  EXPECT_EQ(invalidated->actor, fig.a);
  EXPECT_EQ(invalidated->peer, fig.b);
  EXPECT_EQ(invalidated->tunnel, 1u);
  ASSERT_NE(invalidated->parent, 0u);
  EXPECT_EQ(events[invalidated->parent - 1].kind,
            obs::EventKind::BestChanged);
  const obs::Event* root = &*invalidated;
  while (root->parent != 0) root = &events[root->parent - 1];
  EXPECT_EQ(root->kind, obs::EventKind::RootCause);
  EXPECT_STREQ(root->detail, "link_down");
  EXPECT_EQ(root->time, 300u);
  EXPECT_EQ(obs::build_propagation_trees(events).orphans, 0u);
}

/// Every count a replay reports, in one line: the BGP counters, the
/// scheduler events, the torn tunnels and the checker's tallies.
std::string replay_counts(const ReplayResult& r) {
  std::ostringstream out;
  out << "bgp " << r.bgp.updates_sent << ' ' << r.bgp.withdrawals_sent << ' '
      << r.bgp.delivered_updates << ' ' << r.bgp.delivered_withdrawals << ' '
      << r.bgp.lost_in_flight << ' ' << r.bgp.selections << ' '
      << r.bgp.coalesced << ' ' << r.bgp.updates_suppressed << ' '
      << r.bgp.routes_damped << " events " << r.scheduler_events << " torn "
      << r.tunnels_torn << " checker " << r.checker.checkpoints << ' '
      << r.checker.quiet_checkpoints << ' ' << r.checker.solver_comparisons
      << ' ' << r.checker.violations_dropped << " violations "
      << r.violations.size() << " bursts " << r.convergence.size()
      << " end " << r.final_time;
  return out.str();
}

/// Watched tunnels for a generated-topology replay: every 40th AS with a
/// default path of at least three ASes binds that path, alternately strict
/// and avoiding the AS after its next hop, so route changes tear some down.
std::vector<core::TunnelMonitor::WatchedTunnel> tunnels_on(
    const topo::AsGraph& graph, NodeId destination) {
  const bgp::RoutingTree tree =
      bgp::StableRouteSolver(graph).solve(destination);
  std::vector<core::TunnelMonitor::WatchedTunnel> tunnels;
  for (NodeId n = 0; n < graph.node_count(); n += 40) {
    if (!tree.reachable(n)) continue;
    const std::vector<NodeId> path = tree.path_of(n);
    if (path.size() < 3) continue;
    core::TunnelMonitor::WatchedTunnel tunnel;
    tunnel.id = tunnels.size() + 1;
    tunnel.upstream = n;
    tunnel.responder = n;
    tunnel.destination = destination;
    tunnel.bound_path = path;
    if (tunnels.size() % 2 == 0) {
      tunnel.strict_binding = true;
    } else if (path.size() > 3) {
      tunnel.must_avoid = path[2];
    }
    tunnels.push_back(tunnel);
  }
  return tunnels;
}

// The sessioned BGP plane's exact behaviour, pinned: for each scenario the
// FNV-1a hash of the whole event stream (write_jsonl) and every replay
// count must equal the values recorded from the map-keyed speakers and the
// std::function scheduler. Any change to the speakers, the scheduler or the
// checker that reorders, adds or drops one event fails here.
TEST(ChurnReplay, EventStreamMatchesTheParent) {
  struct Pinned {
    std::string scenario;
    std::uint64_t stream_hash;
    std::string counts;
  };
  const std::vector<Pinned> pinned = {
      {"figure31_mixed plain", 0x80130c6de4e14021ULL,
       "bgp 134 58 134 57 1 260 0 0 0 "
       "events 252 torn 0 "
       "checker 38 37 28 0 violations 0 bursts 30 end 7580"},
      {"figure31_flap plain", 0x62398ea85a54daabULL,
       "bgp 265 114 264 114 1 459 0 0 0 "
       "events 459 torn 0 "
       "checker 10 10 10 0 violations 0 bursts 39 end 1980"},
      {"gao2005@0.15 seed 1 plain", 0x86f686ec420980deULL,
       "bgp 21467 3222 21467 3222 0 24768 0 0 0 "
       "events 24761 torn 15 "
       "checker 40 35 32 0 violations 0 bursts 33 end 7935"},
      {"gao2005@0.15 seed 2 plain", 0x543706f26b767cbdULL,
       "bgp 12572 3365 12572 3365 0 16026 0 0 0 "
       "events 16017 torn 15 "
       "checker 39 36 34 0 violations 0 bursts 43 end 7694"},
      {"gao2005@0.15 seed 3 plain", 0xd38df3d6c9e6128cULL,
       "bgp 16450 4836 16450 4836 0 21367 0 0 0 "
       "events 21358 torn 15 "
       "checker 38 35 32 0 violations 0 bursts 31 end 7564"},
      {"figure31_mixed defend", 0x7af8bb2ebc41dbb3ULL,
       "bgp 112 57 112 56 1 228 1 21 12 "
       "events 408 torn 0 "
       "checker 42 40 9 0 violations 0 bursts 30 end 8393"},
      {"figure31_flap defend", 0xb0e8756267f76da7ULL,
       "bgp 76 12 75 12 1 138 0 34 4 "
       "events 221 torn 0 "
       "checker 18 17 1 0 violations 0 bursts 36 end 3480"},
      {"gao2005@0.15 seed 1 defend", 0xc0be02513ed4a8dbULL,
       "bgp 10032 3041 10032 3041 0 10595 723 3993 1436 "
       "events 27653 torn 15 "
       "checker 47 41 32 0 violations 0 bursts 29 end 9365"},
      {"gao2005@0.15 seed 2 defend", 0xb8cdf34bea5daacaULL,
       "bgp 8575 2550 8575 2550 0 11443 1070 804 1033 "
       "events 23363 torn 15 "
       "checker 39 34 21 0 violations 0 bursts 41 end 7744"},
      {"gao2005@0.15 seed 3 defend", 0xe4d2c481be8430dcULL,
       "bgp 10108 4003 10108 4003 0 13586 1302 1871 1265 "
       "events 29558 torn 15 "
       "checker 46 40 14 0 violations 0 bursts 28 end 9018"},
  };
  const topo::Figure31 fig;
  const topo::AsGraph gao = topo::generate(topo::profile("gao2005", 0.15));
  std::vector<Pinned> actual;
  for (const bool defend : {false, true}) {
    ReplayConfig config;
    if (defend) {
      config.defense.mrai = 60;
      config.defense.damping_enabled = true;
    }
    const std::string mode = defend ? " defend" : " plain";
    const auto run = [&](const std::string& scenario,
                         const topo::AsGraph& graph, const ChurnTrace& trace,
                         ReplayConfig run_config) {
      obs::EventLog log;
      run_config.log = &log;
      const ReplayResult result = replay_churn(graph, trace, run_config);
      std::ostringstream stream;
      log.write_jsonl(stream);
      actual.push_back({scenario + mode, fnv1a(stream.str()),
                        replay_counts(result)});
    };
    for (const char* name : {"figure31_mixed", "figure31_flap"}) {
      run(name, fig.graph,
          ChurnTrace::load(std::string(MIRO_SOURCE_DIR) + "/examples/traces/" +
                           name + ".json"),
          config);
    }
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ChurnTraceConfig trace_config;
      trace_config.duration = 8000;
      trace_config.episodes = 24;
      trace_config.seed = seed;
      ReplayConfig with_tunnels = config;
      with_tunnels.tunnels = tunnels_on(gao, 0);
      run("gao2005@0.15 seed " + std::to_string(seed), gao,
          generate_churn_trace(gao, 0, trace_config), with_tunnels);
    }
  }
  ASSERT_EQ(actual.size(), pinned.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].scenario, pinned[i].scenario);
    EXPECT_EQ(actual[i].stream_hash, pinned[i].stream_hash)
        << actual[i].scenario;
    EXPECT_EQ(actual[i].counts, pinned[i].counts) << actual[i].scenario;
  }
}

TEST(InvariantChecker, CatchesTunnelOutlivingItsRoute) {
  // No monitor wiring here on purpose: the tunnel is never torn down, so
  // once E's route diverges from the strict binding past the hold-down the
  // checker must flag it.
  Figure31Topology fig;
  sim::Scheduler scheduler;
  bgp::SessionedBgpNetwork network(fig.graph, fig.f, scheduler);
  core::TunnelMonitor monitor;
  core::TunnelMonitor::WatchedTunnel tunnel;
  tunnel.id = 7;
  tunnel.upstream = fig.a;
  tunnel.responder = fig.b;
  tunnel.destination = fig.f;
  tunnel.bound_path = {fig.b, fig.e, fig.f};
  tunnel.strict_binding = true;
  monitor.watch(tunnel);
  InvariantChecker checker(network, /*tunnel_hold_down=*/100, &monitor);
  network.start();
  scheduler.run_all();
  checker.check(scheduler.now());
  EXPECT_TRUE(checker.violations().empty());

  network.fail_link(fig.e, fig.f);
  checker.on_session_flush(fig.e, fig.f);
  scheduler.run_all();
  checker.check(scheduler.now());  // dead, but still inside the hold-down
  EXPECT_TRUE(checker.violations().empty());

  scheduler.run_until(scheduler.now() + 200);
  checker.check(scheduler.now());
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].property, "tunnel-hold-down");

  // Reported once, not at every later checkpoint.
  scheduler.run_until(scheduler.now() + 200);
  checker.check(scheduler.now());
  EXPECT_EQ(checker.violations().size(), 1u);
}

TEST(InvariantChecker, SolverAgreesWithTheNetworkAfterALinkFails) {
  // With E-F down, E reroutes over its peer C and D loses F altogether; the
  // quiet checkpoint holds the network to the stable state without that link.
  Figure31Topology fig;
  sim::Scheduler scheduler;
  bgp::SessionedBgpNetwork network(fig.graph, fig.f, scheduler);
  InvariantChecker checker(network);
  network.start();
  scheduler.run_all();
  checker.check(scheduler.now());

  network.fail_link(fig.e, fig.f);
  checker.on_session_flush(fig.e, fig.f);
  scheduler.run_all();
  checker.check(scheduler.now());

  EXPECT_TRUE(checker.violations().empty());
  EXPECT_EQ(checker.stats().solver_comparisons, 2u);
  EXPECT_EQ(network.path_of(fig.e),
            (std::vector<NodeId>{fig.e, fig.c, fig.f}));
  EXPECT_FALSE(network.has_route(fig.d));
}

TEST(InvariantChecker, FinalCheckFlagsNonQuiescence) {
  Figure31Topology fig;
  sim::Scheduler scheduler;
  bgp::SessionedBgpNetwork network(fig.graph, fig.f, scheduler);
  InvariantChecker checker(network);
  network.start();
  // Messages are in flight right after start(); a final check here must
  // complain about the missing quiescence.
  ASSERT_FALSE(network.transit_quiet());
  checker.final_check(scheduler.now());
  ASSERT_FALSE(checker.violations().empty());
  EXPECT_EQ(checker.violations()[0].property, "replay-quiescence");
}

}  // namespace
}  // namespace miro::churn
