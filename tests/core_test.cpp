#include <gtest/gtest.h>

#include <deque>

#include "core/alternates.hpp"
#include "core/export_policy.hpp"
#include "core/protocol.hpp"
#include "core/route_store.hpp"
#include "core/tunnel.hpp"
#include "policy/policy_config.hpp"
#include "scenarios.hpp"

namespace miro::core {
namespace {

using bgp::Route;
using bgp::RouteClass;
using bgp::RoutingTree;
using bgp::StableRouteSolver;
using test::Figure31Topology;
using topo::Relationship;

// ----------------------------------------------------------- export policy

TEST(ExportPolicy, FlexibleAllowsEverything) {
  for (auto cls : {RouteClass::Customer, RouteClass::Peer,
                   RouteClass::Provider}) {
    for (auto rel : {Relationship::Customer, Relationship::Peer,
                     Relationship::Provider}) {
      EXPECT_TRUE(allows(ExportPolicy::Flexible, cls, RouteClass::Customer,
                         rel));
    }
  }
}

TEST(ExportPolicy, RespectExportFollowsConventionalRules) {
  // Peer-learned alternates may go to customers but not to peers/providers.
  EXPECT_TRUE(allows(ExportPolicy::RespectExport, RouteClass::Peer,
                     RouteClass::Customer, Relationship::Customer));
  EXPECT_FALSE(allows(ExportPolicy::RespectExport, RouteClass::Peer,
                      RouteClass::Customer, Relationship::Peer));
  EXPECT_FALSE(allows(ExportPolicy::RespectExport, RouteClass::Provider,
                      RouteClass::Customer, Relationship::Provider));
  // Customer-learned alternates go anywhere.
  EXPECT_TRUE(allows(ExportPolicy::RespectExport, RouteClass::Customer,
                     RouteClass::Peer, Relationship::Provider));
}

TEST(ExportPolicy, StrictRequiresSameLocalPrefBand) {
  // Best route is a customer route: only customer-class alternates flow.
  EXPECT_TRUE(allows(ExportPolicy::Strict, RouteClass::Customer,
                     RouteClass::Customer, Relationship::Customer));
  EXPECT_FALSE(allows(ExportPolicy::Strict, RouteClass::Peer,
                      RouteClass::Customer, Relationship::Customer));
  // Best route is a peer route: peer alternates pass toward customers.
  EXPECT_TRUE(allows(ExportPolicy::Strict, RouteClass::Peer,
                     RouteClass::Peer, Relationship::Customer));
  // ... but conventional export still binds toward peers.
  EXPECT_FALSE(allows(ExportPolicy::Strict, RouteClass::Peer,
                      RouteClass::Peer, Relationship::Peer));
}

TEST(ExportPolicy, StrictTreatsSelfAsCustomerBand) {
  EXPECT_TRUE(allows(ExportPolicy::Strict, RouteClass::Customer,
                     RouteClass::Self, Relationship::Customer));
}

/// Exhaustive sweep over (candidate class, best class, requester
/// relationship): the policies must be monotone (strict implies export
/// implies flexible) on every cell, and flexible/a must dominate everything.
class ExportPolicyLattice
    : public ::testing::TestWithParam<
          std::tuple<RouteClass, RouteClass, Relationship>> {};

TEST_P(ExportPolicyLattice, StrictImpliesExportImpliesFlexible) {
  const auto [candidate, best, rel] = GetParam();
  const bool strict = allows(ExportPolicy::Strict, candidate, best, rel);
  const bool exported =
      allows(ExportPolicy::RespectExport, candidate, best, rel);
  const bool flexible = allows(ExportPolicy::Flexible, candidate, best, rel);
  EXPECT_TRUE(!strict || exported) << "strict allowed what /e denies";
  EXPECT_TRUE(!exported || flexible) << "/e allowed what /a denies";
  EXPECT_TRUE(flexible);
  // Strict never exports a candidate outside the best route's band.
  if (strict) {
    auto band = [](RouteClass cls) {
      return cls == RouteClass::Self ? bgp::rank(RouteClass::Customer)
                                     : bgp::rank(cls);
    };
    EXPECT_EQ(band(candidate), band(best));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, ExportPolicyLattice,
    ::testing::Combine(
        ::testing::Values(RouteClass::Self, RouteClass::Customer,
                          RouteClass::Peer, RouteClass::Provider),
        ::testing::Values(RouteClass::Self, RouteClass::Customer,
                          RouteClass::Peer, RouteClass::Provider),
        ::testing::Values(Relationship::Customer, Relationship::Peer,
                          Relationship::Provider, Relationship::Sibling)));

TEST(ExportPolicy, FilterPreservesOrder) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  const auto candidates = solver.candidates_at(tree, fig.b);
  const auto flexible = filter_exports(ExportPolicy::Flexible, candidates,
                                       tree.route_class(fig.b),
                                       Relationship::Customer);
  EXPECT_EQ(flexible.size(), candidates.size());
  const auto strict = filter_exports(ExportPolicy::Strict, candidates,
                                     tree.route_class(fig.b),
                                     Relationship::Customer);
  // B's best is a customer route; the peer alternate BCF is held back.
  EXPECT_EQ(strict.size(), 1u);
  EXPECT_EQ(strict[0].route_class, RouteClass::Customer);
}

// -------------------------------------------------------------- alternates

TEST(Alternates, Figure31AvoidE) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);

  // Under the strict policy B only offers customer-class alternates, none
  // of which avoid E: the negotiation fails.
  const auto strict = engine.avoid_as(tree, fig.a, fig.e,
                                      ExportPolicy::Strict);
  EXPECT_FALSE(strict.success);
  EXPECT_EQ(strict.ases_contacted, 1u);  // B was asked

  // Respecting export policy, B may offer its peer route BCF to customer A.
  const auto exported = engine.avoid_as(tree, fig.a, fig.e,
                                        ExportPolicy::RespectExport);
  ASSERT_TRUE(exported.success);
  EXPECT_FALSE(exported.bgp_success);
  EXPECT_EQ(exported.ases_contacted, 1u);
  ASSERT_TRUE(exported.chosen);
  EXPECT_EQ(exported.chosen->as_path,
            (std::vector<topo::NodeId>{fig.a, fig.b, fig.c, fig.f}));
  EXPECT_EQ(exported.chosen->responder, fig.b);
  EXPECT_FALSE(exported.chosen->traverses(fig.e));

  const auto flexible = engine.avoid_as(tree, fig.a, fig.e,
                                        ExportPolicy::Flexible);
  EXPECT_TRUE(flexible.success);
}

TEST(Alternates, AvoidRequiresAvoidOnDefaultPath) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);
  // C is not on A's default path A-B-E-F.
  EXPECT_THROW(engine.avoid_as(tree, fig.a, fig.c, ExportPolicy::Flexible),
               Error);
}

TEST(Alternates, DeploymentFilterBlocksResponder) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);
  std::vector<bool> nobody(fig.graph.node_count(), false);
  const auto result = engine.avoid_as(tree, fig.a, fig.e,
                                      ExportPolicy::Flexible, &nobody);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.ases_contacted, 0u);

  std::vector<bool> only_b(fig.graph.node_count(), false);
  only_b[fig.b] = true;
  const auto with_b = engine.avoid_as(tree, fig.a, fig.e,
                                      ExportPolicy::Flexible, &only_b);
  EXPECT_TRUE(with_b.success);
}

TEST(Alternates, OneHopCollectExposesNeighborCandidates) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);
  const auto paths = engine.collect(tree, fig.a, NegotiationScope::OneHop,
                                    ExportPolicy::Flexible);
  // A's neighbors are B and D. B holds alternate BCF; D holds only DEF
  // (which is A's alternate ADEF, distinct from the default ABEF).
  ASSERT_FALSE(paths.empty());
  bool found_abcf = false;
  for (const SplicedPath& path : paths) {
    EXPECT_NE(path.as_path, tree.path_of(fig.a));  // default excluded
    if (path.as_path ==
        std::vector<topo::NodeId>{fig.a, fig.b, fig.c, fig.f})
      found_abcf = true;
  }
  EXPECT_TRUE(found_abcf);
}

TEST(Alternates, PolicyMonotonicity) {
  // More permissive policies can only expose more paths.
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);
  for (auto scope : {NegotiationScope::OneHop, NegotiationScope::OnPath}) {
    const auto s = engine.count(tree, fig.a, scope, ExportPolicy::Strict);
    const auto e =
        engine.count(tree, fig.a, scope, ExportPolicy::RespectExport);
    const auto a = engine.count(tree, fig.a, scope, ExportPolicy::Flexible);
    EXPECT_LE(s, e);
    EXPECT_LE(e, a);
  }
}

TEST(Alternates, SplicedPathsAreLoopFreeAndReachDestination) {
  Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  AlternatesEngine engine(solver);
  for (auto scope : {NegotiationScope::OneHop, NegotiationScope::OnPath}) {
    for (const SplicedPath& path :
         engine.collect(tree, fig.a, scope, ExportPolicy::Flexible)) {
      EXPECT_EQ(path.as_path.front(), fig.a);
      EXPECT_EQ(path.as_path.back(), fig.f);
      auto sorted = path.as_path;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end())
          << "looping spliced path";
      EXPECT_EQ(path.as_path[path.responder_index], path.responder);
    }
  }
}

// ------------------------------------------------------------------ tunnel

TEST(TunnelTable, CreateFindRemove) {
  TunnelTable table;
  Route route{{1, 2, 3}, RouteClass::Peer};
  const auto id = table.create(/*remote_as=*/9, route, /*cost=*/120,
                               /*now=*/100);
  EXPECT_EQ(table.active_count(), 1u);
  const TunnelRecord* record = table.find(id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->remote_as, 9u);
  EXPECT_EQ(record->cost, 120);
  EXPECT_TRUE(table.remove(id));
  EXPECT_FALSE(table.remove(id));
  EXPECT_EQ(table.find(id), nullptr);
}

TEST(TunnelTable, IdsAreUniquePerTable) {
  TunnelTable table;
  Route route{{1, 2}, RouteClass::Customer};
  const auto id1 = table.create(1, route, 0, 0);
  const auto id2 = table.create(2, route, 0, 0);
  EXPECT_NE(id1, id2);
}

TEST(TunnelTable, SoftStateExpiry) {
  TunnelTable table;
  Route route{{1, 2}, RouteClass::Customer};
  const auto fresh = table.create(1, route, 0, /*now=*/1000);
  const auto stale = table.create(2, route, 0, /*now=*/0);
  EXPECT_TRUE(table.heartbeat(fresh, 1200));
  const auto expired = table.expire(/*now=*/1300, /*timeout=*/500);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], stale);
  EXPECT_EQ(table.active_count(), 1u);
  EXPECT_FALSE(table.heartbeat(stale, 1300));
}

// ---------------------------------------------------------------- protocol

struct ProtocolHarness {
  Figure31Topology fig;
  RouteStore store{fig.graph};
  sim::Scheduler scheduler;
  Bus bus{scheduler};
  std::deque<std::optional<NegotiationOutcome>> outcomes;  // stable slots

  /// `requester` asks B for a route to F whose traffic arrives from A, and
  /// the scheduler runs to `until`; returns the outcome by then, if any.
  std::optional<NegotiationOutcome> negotiate(MiroAgent& requester,
                                              std::optional<NodeId> avoid,
                                              std::optional<int> max_cost,
                                              sim::Time until) {
    std::optional<NegotiationOutcome>& outcome = outcomes.emplace_back();
    requester.request(fig.b, fig.a, fig.f, avoid, max_cost,
                      [&outcome](const NegotiationOutcome& o) { outcome = o; });
    scheduler.run_until(until);
    return outcome;
  }
};

TEST(Protocol, NegotiationEstablishesTunnel) {
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.policy = ExportPolicy::RespectExport;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);

  const auto outcome = h.negotiate(a, /*avoid=*/h.fig.e, std::nullopt, 1000);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(outcome->established);
  EXPECT_EQ(outcome->responder, h.fig.b);
  EXPECT_EQ(outcome->offers_received, 1u);  // only BCF avoids E
  EXPECT_EQ(b.tunnels().active_count(), 1u);
  EXPECT_EQ(a.upstream_tunnels().size(), 1u);
  EXPECT_EQ(b.stats().requests_received, 1u);
  EXPECT_EQ(a.stats().requests_sent, 1u);

  const TunnelRecord* record = b.tunnels().find(outcome->tunnel_id);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->remote_as, h.fig.a);
  EXPECT_EQ(record->bound_route.path,
            (std::vector<topo::NodeId>{h.fig.b, h.fig.c, h.fig.f}));
  EXPECT_EQ(outcome->cost, 180);  // the default tariff's peer-route price
}

TEST(Protocol, StrictResponderRejectsAvoidERequest) {
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.policy = ExportPolicy::Strict;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);

  const auto outcome = h.negotiate(a, h.fig.e, std::nullopt, 1000);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->established);
  EXPECT_EQ(outcome->offers_received, 0u);
}

TEST(Protocol, MaxCostFiltersOffers) {
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.policy = ExportPolicy::RespectExport;
  // "filter permit local_pref > 0 / set tunnel_cost 500": every route
  // costs 500.
  responder_config.rules.filters = {
      {.local_pref_greater = 0, .tunnel_cost = 500}};
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);

  const auto outcome = h.negotiate(a, h.fig.e, /*max_cost=*/250, 1000);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->established);  // everything too expensive
}

TEST(Protocol, AdmissionControlByTunnelCount) {
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.policy = ExportPolicy::Flexible;
  responder_config.rules.max_tunnels = 0;  // room for nothing
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);

  const auto outcome = h.negotiate(a, std::nullopt, std::nullopt, 1000);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->established);
  EXPECT_EQ(b.stats().requests_rejected, 1u);
}

TEST(Protocol, TrustPredicateRejectsStranger) {
  ProtocolHarness h;
  ResponderConfig responder_config;
  // "accept negotiation from as 4": only D is trusted.
  responder_config.rules.accept_any = false;
  responder_config.rules.accept_asns = {h.fig.graph.as_number(h.fig.d)};
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);
  const auto outcome = h.negotiate(a, std::nullopt, std::nullopt, 1000);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->established);
}

TEST(Protocol, ResponderEnforcesAParsedChapter6Config) {
  // B accepts negotiations from A only, holds at most one tunnel, and sells
  // customer routes (local preference 400) for 110; no filter prices peer
  // routes, so those must not be offered.
  const policy::BgpConfig config = policy::parse_config(R"(
router bgp 2
accept negotiation from as 1
when tunnel_number < 1
negotiation filter CUSTOMER-ROUTES
filter permit local_pref > 300
set tunnel_cost 110
)");
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.rules = *config.responder;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent d(h.fig.d, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);

  // D (AS 4) is not on the accept list.
  const auto stranger = h.negotiate(d, std::nullopt, std::nullopt, 500);
  ASSERT_TRUE(stranger.has_value());
  EXPECT_FALSE(stranger->established);
  EXPECT_EQ(b.stats().requests_rejected, 1u);

  // A is admitted, but BCF (a peer route) is the only route avoiding E and
  // no filter prices it: nothing is offered.
  const auto unpriced = h.negotiate(a, h.fig.e, std::nullopt, 1000);
  ASSERT_TRUE(unpriced.has_value());
  EXPECT_FALSE(unpriced->established);
  EXPECT_EQ(unpriced->offers_received, 0u);
  EXPECT_EQ(b.stats().requests_rejected, 1u);

  // Of B's two exportable candidates (BEF customer, BCF peer), only the
  // priced customer route is offered, at the filter's price.
  const auto listed = h.negotiate(a, std::nullopt, std::nullopt, 1500);
  ASSERT_TRUE(listed.has_value());
  ASSERT_TRUE(listed->established);
  EXPECT_EQ(listed->offers_received, 1u);
  EXPECT_EQ(listed->route.path,
            (std::vector<topo::NodeId>{h.fig.b, h.fig.e, h.fig.f}));
  EXPECT_EQ(listed->cost, 110);
  EXPECT_EQ(b.stats().offers_sent, 1u);

  // The one-tunnel budget is spent: the next request is rejected.
  const auto over_budget = h.negotiate(a, std::nullopt, std::nullopt, 2000);
  ASSERT_TRUE(over_budget.has_value());
  EXPECT_FALSE(over_budget->established);
  EXPECT_EQ(b.stats().requests_rejected, 2u);
  EXPECT_EQ(b.tunnels().active_count(), 1u);
}

TEST(Protocol, DefaultRulesKeepTheSectionSixTariff) {
  // "accept negotiation from any when tunnel_number < 1000" and, under the
  // conventional local-preference bands, 100/120/180/240 by route class.
  const policy::ResponderSpec rules = ResponderConfig{}.rules;
  EXPECT_TRUE(rules.admits(64512, 999));
  EXPECT_FALSE(rules.admits(64512, 1000));
  for (const auto& [cls, price] :
       {std::pair{RouteClass::Self, 100}, std::pair{RouteClass::Customer, 120},
        std::pair{RouteClass::Peer, 180}, std::pair{RouteClass::Provider, 240}})
    EXPECT_EQ(rules.price_for(bgp::conventional_local_pref(cls)), price);

  // The agent charges them: B sells A the customer route BEF for 120.
  ProtocolHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  const auto outcome = h.negotiate(a, /*avoid=*/h.fig.c, std::nullopt, 500);
  ASSERT_TRUE(outcome && outcome->established);
  EXPECT_EQ(outcome->route.path,
            (std::vector<topo::NodeId>{h.fig.b, h.fig.e, h.fig.f}));
  EXPECT_EQ(outcome->cost, 120);
}

TEST(Protocol, ActiveTeardownRemovesDownstreamState) {
  ProtocolHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  const auto outcome = h.negotiate(a, h.fig.e, std::nullopt, 500);
  ASSERT_TRUE(outcome && outcome->established);
  a.teardown(outcome->tunnel_id);
  h.scheduler.run_until(600);
  EXPECT_EQ(b.tunnels().active_count(), 0u);
  EXPECT_EQ(b.stats().tunnels_torn_down, 1u);
}

TEST(Protocol, KeepAlivesSustainTunnelAcrossTime) {
  ProtocolHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  // Many keepalive/expiry cycles.
  const auto outcome = h.negotiate(a, h.fig.e, std::nullopt, 5000);
  ASSERT_TRUE(outcome && outcome->established);
  EXPECT_EQ(b.tunnels().active_count(), 1u);
  EXPECT_EQ(b.stats().tunnels_expired, 0u);
}

TEST(Protocol, SoftStateExpiresWhenLinkPartitioned) {
  // "When A can no longer reach B, the 'active tunnel tear-down' message
  // itself may not be able to reach AS B" — soft state must clean up.
  ProtocolHarness h;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus);
  const auto outcome = h.negotiate(a, h.fig.e, std::nullopt, 500);
  ASSERT_TRUE(outcome && outcome->established);
  h.bus.set_link_down(h.fig.a, h.fig.b, true);  // keepalives stop arriving
  h.scheduler.run_until(5000);
  EXPECT_EQ(b.tunnels().active_count(), 0u);
  EXPECT_EQ(b.stats().tunnels_expired, 1u);
}

TEST(Protocol, ResponderFiltersAvoidConstraintServerSide) {
  // The responder prunes candidates violating the requester's constraint
  // before they cross the wire (Section 6.2.2).
  ProtocolHarness h;
  ResponderConfig responder_config;
  responder_config.policy = ExportPolicy::Flexible;
  MiroAgent a(h.fig.a, h.store, h.bus);
  MiroAgent b(h.fig.b, h.store, h.bus, responder_config);
  const auto constrained = h.negotiate(a, /*avoid=*/h.fig.e, std::nullopt, 500);
  const auto unconstrained = h.negotiate(a, std::nullopt, std::nullopt, 1000);
  ASSERT_TRUE(constrained && unconstrained);
  EXPECT_LT(constrained->offers_received, unconstrained->offers_received);
}

}  // namespace
}  // namespace miro::core
