// Tests for downstream-initiated switch negotiation (Section 3.3): AS F
// asks AS B to select BCF instead of BEF so traffic enters via link CF, and
// the accepted switch reshapes the network exactly as the eval harness's
// pinned re-solve predicts.
#include <gtest/gtest.h>

#include "bgp/route_solver.hpp"
#include "core/protocol.hpp"
#include "scenarios.hpp"

namespace miro::core {
namespace {

using test::Figure31Topology;

struct SwitchHarness {
  Figure31Topology fig;
  RouteStore store{fig.graph};
  sim::Scheduler scheduler;
  Bus bus{scheduler};
};

TEST(SwitchNegotiation, CompensatedSwitchIsAccepted) {
  SwitchHarness h;
  MiroAgent agent_f(h.fig.f, h.store, h.bus);
  MiroAgent agent_b(h.fig.b, h.store, h.bus);

  // F asks B to switch its route-to-F from BEF (customer) to BCF (peer);
  // one class rank of downgrade costs 100 under the default policy.
  bool accepted = false;
  std::vector<topo::NodeId> new_path;
  agent_f.request_switch(h.fig.b, /*destination=*/h.fig.f,
                         /*desired_next_hop=*/h.fig.c, /*compensation=*/150,
                         [&](bool ok, const std::vector<topo::NodeId>& path) {
                           accepted = ok;
                           new_path = path;
                         });
  h.scheduler.run_until(500);
  ASSERT_TRUE(accepted);
  EXPECT_EQ(new_path,
            (std::vector<topo::NodeId>{h.fig.b, h.fig.c, h.fig.f}));
  EXPECT_EQ(agent_b.stats().switches_accepted, 1u);
  ASSERT_EQ(agent_b.switched_selections().count(h.fig.f), 1u);
  EXPECT_EQ(agent_b.switched_selections().at(h.fig.f), h.fig.c);

  // The network-wide effect equals the pinned re-solve: A follows B onto
  // the CF link ("hopefully many neighbors will also switch", Section 5.4).
  bgp::StableRouteSolver solver(h.fig.graph);
  const bgp::RoutingTree pinned =
      solver.solve_pinned(h.fig.f, bgp::PinnedRoute{h.fig.b, h.fig.c});
  EXPECT_EQ(pinned.ingress_neighbor(h.fig.b), h.fig.c);
}

TEST(SwitchNegotiation, UnderpaidDowngradeIsDeclined) {
  SwitchHarness h;
  MiroAgent agent_f(h.fig.f, h.store, h.bus);
  MiroAgent agent_b(h.fig.b, h.store, h.bus);
  bool completed = false, accepted = true;
  agent_f.request_switch(h.fig.b, h.fig.f, h.fig.c, /*compensation=*/50,
                         [&](bool ok, const std::vector<topo::NodeId>&) {
                           completed = true;
                           accepted = ok;
                         });
  h.scheduler.run_until(500);
  ASSERT_TRUE(completed);
  EXPECT_FALSE(accepted);  // 50 < 100-per-class-rank downgrade price
  EXPECT_EQ(agent_b.stats().switches_declined, 1u);
  EXPECT_TRUE(agent_b.switched_selections().empty());
}

TEST(SwitchNegotiation, UnknownNextHopIsDeclined) {
  SwitchHarness h;
  MiroAgent agent_f(h.fig.f, h.store, h.bus);
  MiroAgent agent_b(h.fig.b, h.store, h.bus);
  bool completed = false, accepted = true;
  // B has no candidate toward F whose first hop is A.
  agent_f.request_switch(h.fig.b, h.fig.f, h.fig.a, 1000,
                         [&](bool ok, const std::vector<topo::NodeId>&) {
                           completed = true;
                           accepted = ok;
                         });
  h.scheduler.run_until(500);
  ASSERT_TRUE(completed);
  EXPECT_FALSE(accepted);
}

TEST(SwitchNegotiation, SilentResponderTimesOut) {
  SwitchHarness h;
  MiroAgent agent_f(h.fig.f, h.store, h.bus);
  bool completed = false, accepted = true;
  agent_f.request_switch(h.fig.b, h.fig.f, h.fig.c, 150,
                         [&](bool ok, const std::vector<topo::NodeId>&) {
                           completed = true;
                           accepted = ok;
                         });
  h.scheduler.run_until(2500);  // past kNegotiationTimeout, no agent at B
  ASSERT_TRUE(completed);
  EXPECT_FALSE(accepted);
}

TEST(SwitchNegotiation, CustomPolicyCanRefuseEverything) {
  SwitchHarness h;
  ResponderConfig config;
  config.rules.accept_any = false;  // an empty accept list trusts nobody
  MiroAgent agent_f(h.fig.f, h.store, h.bus);
  MiroAgent agent_b(h.fig.b, h.store, h.bus, config);
  bool accepted = true;
  agent_f.request_switch(h.fig.b, h.fig.f, h.fig.c, 100000,
                         [&](bool ok, const std::vector<topo::NodeId>&) {
                           accepted = ok;
                         });
  h.scheduler.run_until(500);
  EXPECT_FALSE(accepted);
}

}  // namespace
}  // namespace miro::core
