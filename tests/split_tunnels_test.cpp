// Tests for hash-based traffic splitting across multiple negotiated tunnels
// (Section 3.5) and protocol-hardening edge cases.
#include <gtest/gtest.h>

#include <map>

#include "core/alternates.hpp"
#include "core/protocol.hpp"
#include "dataplane/forwarding.hpp"
#include "scenarios.hpp"

namespace miro::dataplane {
namespace {

using core::AlternatesEngine;
using core::ExportPolicy;
using core::NegotiationScope;
using core::RouteStore;
using core::SplicedPath;
using test::Figure31Topology;

struct SplitHarness {
  Figure31Topology fig;
  RouteStore store{fig.graph};
  AsLevelDataPlane plane{store};
  bgp::StableRouteSolver solver{fig.graph};

  /// Two distinct alternates for A toward F: via B over BCF and via D over
  /// DEF (A's other provider).
  std::vector<SplicedPath> two_paths() {
    const bgp::RoutingTree tree = solver.solve(fig.f);
    AlternatesEngine engine(solver);
    auto all = engine.collect(tree, fig.a, NegotiationScope::OneHop,
                              ExportPolicy::Flexible);
    std::vector<SplicedPath> chosen;
    for (const SplicedPath& path : all) {
      if (path.as_path ==
              std::vector<topo::NodeId>{fig.a, fig.b, fig.c, fig.f} ||
          path.as_path == std::vector<topo::NodeId>{fig.a, fig.d, fig.e,
                                                    fig.f})
        chosen.push_back(path);
    }
    return chosen;
  }
};

TEST(SplitTunnels, FlowsAreSpreadAcrossPathsByWeight) {
  SplitHarness h;
  const auto paths = h.two_paths();
  ASSERT_EQ(paths.size(), 2u);
  const auto ids = h.plane.install_split_tunnels(paths, {1.0, 1.0});
  ASSERT_EQ(ids.size(), 2u);

  std::map<std::vector<topo::NodeId>, std::size_t> taken;
  for (std::uint16_t port = 0; port < 400; ++port) {
    net::Packet packet(h.plane.host_address(h.fig.a),
                       h.plane.host_address(h.fig.f),
                       net::FlowLabel{port, 80, 6, 0});
    const auto trace = h.plane.trace(std::move(packet), h.fig.a);
    ASSERT_TRUE(trace.delivered);
    ++taken[trace.as_path()];
  }
  ASSERT_EQ(taken.size(), 2u);  // both paths carry traffic
  for (const auto& [path, count] : taken) {
    EXPECT_GT(count, 120u) << "split far from 50/50";
    EXPECT_LT(count, 280u);
  }
}

TEST(SplitTunnels, FlowsAreSticky) {
  SplitHarness h;
  const auto paths = h.two_paths();
  ASSERT_EQ(paths.size(), 2u);
  h.plane.install_split_tunnels(paths, {1.0, 1.0});
  const net::FlowLabel flow{1234, 443, 6, 0};
  std::vector<topo::NodeId> first;
  for (int i = 0; i < 5; ++i) {
    net::Packet packet(h.plane.host_address(h.fig.a),
                       h.plane.host_address(h.fig.f), flow);
    const auto trace = h.plane.trace(std::move(packet), h.fig.a);
    ASSERT_TRUE(trace.delivered);
    if (first.empty()) {
      first = trace.as_path();
    } else {
      EXPECT_EQ(trace.as_path(), first) << "flow flapped between paths";
    }
  }
}

TEST(SplitTunnels, SkewedWeightsSkewTraffic) {
  SplitHarness h;
  const auto paths = h.two_paths();
  ASSERT_EQ(paths.size(), 2u);
  const auto ids = h.plane.install_split_tunnels(paths, {9.0, 1.0});
  std::size_t via_first = 0, total = 0;
  for (std::uint16_t port = 0; port < 600; ++port) {
    net::Packet packet(h.plane.host_address(h.fig.a),
                       h.plane.host_address(h.fig.f),
                       net::FlowLabel{port, 80, 17, 0});
    const auto trace = h.plane.trace(std::move(packet), h.fig.a);
    ASSERT_TRUE(trace.delivered);
    ++total;
    if (trace.as_path() == paths.front().as_path) ++via_first;
  }
  const double share = static_cast<double>(via_first) /
                       static_cast<double>(total);
  EXPECT_NEAR(share, 0.9, 0.06);
  (void)ids;
}

TEST(SplitTunnels, ValidatesInput) {
  SplitHarness h;
  const auto paths = h.two_paths();
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_THROW(h.plane.install_split_tunnels({}, {}), Error);
  EXPECT_THROW(h.plane.install_split_tunnels(paths, {1.0}), Error);
  // Paths with different heads are rejected.
  auto foreign = paths;
  foreign[1].as_path[0] = h.fig.b;
  EXPECT_THROW(h.plane.install_split_tunnels(foreign, {1.0, 1.0}), Error);
}

}  // namespace
}  // namespace miro::dataplane

namespace miro::core {
namespace {

using test::Figure31Topology;

struct HardeningHarness {
  Figure31Topology fig;
  RouteStore store{fig.graph};
  sim::Scheduler scheduler;
  Bus bus{scheduler};
};

TEST(ProtocolHardening, StrayMessagesAreIgnored) {
  HardeningHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  // Offers for a negotiation that never existed; confirms with bogus ids;
  // keepalives and teardowns for unknown tunnels.
  h.bus.send(h.fig.b, h.fig.a, RouteOffers{999, {}});
  h.bus.send(h.fig.b, h.fig.a, TunnelConfirm{999, 42});
  h.bus.send(h.fig.a, h.fig.b, TunnelKeepAlive{42});
  h.bus.send(h.fig.a, h.fig.b, TunnelTeardown{42});
  EXPECT_NO_THROW(h.scheduler.run_until(1000));
  EXPECT_EQ(a.upstream_tunnels().size(), 0u);
  EXPECT_EQ(b.tunnels().active_count(), 0u);
  EXPECT_EQ(b.stats().tunnels_torn_down, 0u);
}

TEST(ProtocolHardening, OffersFromWrongResponderAreIgnored) {
  HardeningHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  MiroAgent d(h.fig.d, h.store, h.bus);
  std::optional<NegotiationOutcome> outcome;
  const auto id = a.request(h.fig.b, h.fig.a, h.fig.f, h.fig.e, std::nullopt,
                            [&outcome](const NegotiationOutcome& o) {
                              outcome = o;
                            });
  // D injects a forged offer for A's negotiation with B before B answers.
  h.bus.send(h.fig.d, h.fig.a,
             RouteOffers{id, {RouteOffer{
                                 Route{{h.fig.d, h.fig.e, h.fig.f},
                                       bgp::RouteClass::Customer},
                                 1}}});
  h.scheduler.run_until(1000);
  ASSERT_TRUE(outcome.has_value());
  // The genuine negotiation with B still completes with B's route.
  EXPECT_TRUE(outcome->established);
  EXPECT_EQ(outcome->responder, h.fig.b);
  (void)d;
}

TEST(ProtocolHardening, SilentResponderTimesOutTheNegotiation) {
  HardeningHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  // No agent is attached at B: the request vanishes into the void.
  std::optional<NegotiationOutcome> outcome;
  a.request(h.fig.b, h.fig.a, h.fig.f, std::nullopt, std::nullopt,
            [&outcome](const NegotiationOutcome& o) { outcome = o; });
  h.scheduler.run_until(1999);
  EXPECT_FALSE(outcome.has_value());  // still waiting
  h.scheduler.run_until(2100);        // past kNegotiationTimeout
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->established);
  EXPECT_EQ(outcome->responder, h.fig.b);
}

TEST(ProtocolHardening, TimeoutDoesNotDoubleFireAfterSuccess) {
  HardeningHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  std::size_t callbacks = 0;
  a.request(h.fig.b, h.fig.a, h.fig.f, h.fig.e, std::nullopt,
            [&callbacks](const NegotiationOutcome&) { ++callbacks; });
  h.scheduler.run_until(5000);  // far past the timeout
  EXPECT_EQ(callbacks, 1u);
}

TEST(ProtocolHardening, ConcurrentNegotiationsAreIndependent) {
  HardeningHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  MiroAgent d(h.fig.d, h.store, h.bus);
  std::optional<NegotiationOutcome> via_b, via_d;
  a.request(h.fig.b, h.fig.a, h.fig.f, h.fig.e, std::nullopt,
            [&via_b](const NegotiationOutcome& o) { via_b = o; });
  a.request(h.fig.d, h.fig.a, h.fig.f, h.fig.e, std::nullopt,
            [&via_d](const NegotiationOutcome& o) { via_d = o; });
  h.scheduler.run_until(1000);
  ASSERT_TRUE(via_b && via_d);
  // B holds the clean alternate BCF; D has only DEF, which crosses E.
  EXPECT_TRUE(via_b->established);
  EXPECT_FALSE(via_d->established);
  EXPECT_EQ(a.upstream_tunnels().size(), 1u);
}

}  // namespace
}  // namespace miro::core
