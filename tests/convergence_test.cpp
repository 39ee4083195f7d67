#include <gtest/gtest.h>

#include "bgp/route_solver.hpp"
#include "common/error.hpp"
#include "convergence/gadgets.hpp"
#include "convergence/model.hpp"
#include "scenarios.hpp"
#include "topology/generator.hpp"

namespace miro::conv {
namespace {

using test::Figure31Topology;

// ------------------------------------------------------- tunnel-free BGP

TEST(StableRouteSolver, AgreesWithTunnelFreeModelOnRandomTopologies) {
  // The closed-form solver must compute exactly the stable state the
  // asynchronous activation model converges to.
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    topo::GeneratorParams params = topo::profile("tiny");
    params.seed = seed;
    params.node_count = 120;
    const topo::AsGraph graph = topo::generate(params);
    bgp::StableRouteSolver solver(graph);
    for (NodeId dest : {NodeId{0}, NodeId{60}}) {
      const bgp::RoutingTree tree = solver.solve(dest);
      MiroConvergenceModel model(graph, {dest}, {});
      ASSERT_TRUE(model.run_round_robin().converged);
      for (NodeId node = 0; node < graph.node_count(); ++node) {
        const std::optional<Path>& bgp = model.route(node, dest).bgp;
        ASSERT_EQ(tree.reachable(node), bgp.has_value())
            << "node " << node << " dest " << dest << " seed " << seed;
        if (bgp) {
          EXPECT_EQ(tree.path_of(node), *bgp)
              << "node " << node << " dest " << dest << " seed " << seed;
        }
      }
    }
  }
}

TEST(TunnelFreeModel, ActivationReachesStability) {
  Figure31Topology fig;
  MiroConvergenceModel model(fig.graph, {fig.f}, {});
  EXPECT_FALSE(model.is_stable());  // nothing propagated yet
  ASSERT_TRUE(model.run_round_robin().converged);
  EXPECT_TRUE(model.is_stable());
  EXPECT_EQ(model.route(fig.a, fig.f).bgp, (Path{fig.a, fig.b, fig.e, fig.f}));
}

TEST(TunnelFreeModel, RandomFairScheduleConverges) {
  Figure31Topology fig;
  MiroConvergenceModel model(fig.graph, {fig.f}, {});
  Rng rng(5);
  ASSERT_TRUE(model.run_random(rng, 100000).converged);
  EXPECT_EQ(model.route(fig.a, fig.f).bgp, (Path{fig.a, fig.b, fig.e, fig.f}));
}

TEST(TunnelFreeModel, CandidatesMatchSolver) {
  Figure31Topology fig;
  bgp::StableRouteSolver solver(fig.graph);
  const bgp::RoutingTree tree = solver.solve(fig.f);
  MiroConvergenceModel model(fig.graph, {fig.f}, {});
  ASSERT_TRUE(model.run_round_robin().converged);
  // Every AS, so that C (whose neighbors F, B, E are not listed in
  // preference order) checks the ordering too.
  for (NodeId node = 0; node < fig.graph.node_count(); ++node) {
    const auto model_candidates = model.candidates(node, fig.f);
    const auto solver_candidates = solver.candidates_at(tree, node);
    ASSERT_EQ(model_candidates.size(), solver_candidates.size())
        << "node " << node;
    for (std::size_t i = 0; i < model_candidates.size(); ++i)
      EXPECT_EQ(model_candidates[i].path, solver_candidates[i].path)
          << "node " << node;
  }
}

// ---------------------------------------------- Griffin et al.'s gadgets

TEST(GriffinGadgets, DisagreeOscillatesSynchronouslyButHasStableStates) {
  const MiroGadget gadget = make_disagree();
  // Synchronous (simultaneous) activation oscillates forever.
  {
    MiroConvergenceModel model = gadget.build();
    const auto result = model.run_synchronous();
    EXPECT_FALSE(result.converged);
    EXPECT_TRUE(result.cycle_detected) << "DISAGREE settled synchronously?";
  }
  // Sequential round-robin reaches one of the two stable states.
  {
    MiroConvergenceModel model = gadget.build();
    EXPECT_TRUE(model.run_round_robin().converged);
    EXPECT_TRUE(model.is_stable());
  }
}

TEST(GriffinGadgets, BadGadgetNeverStabilizes) {
  const MiroGadget gadget = make_bad_gadget();
  MiroConvergenceModel model = gadget.build();
  const auto result = model.run_round_robin();
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.cycle_detected);
  Rng rng(3);
  MiroConvergenceModel random_model = gadget.build();
  EXPECT_FALSE(random_model.run_random(rng, 50000).converged);
}

TEST(GriffinGadgets, GuidelineAPoliciesFixBadGadget) {
  // The same topology under conventional Gao-Rexford policies converges:
  // violating the customer>peer>provider preference is what broke it.
  const MiroGadget gadget = make_bad_gadget();
  MiroConvergenceModel model(gadget.graph, gadget.destinations, {});
  EXPECT_TRUE(model.run_round_robin().converged);
}

// ------------------------------------------ Gao-Rexford variants (§7.2)

TEST(RelaxedPeering, PeerRouteCanBeatLongerCustomerRoute) {
  // x has a 3-hop customer route and a 2-hop peer route to d. Under
  // Guideline A the customer route wins; under the relaxed band the shorter
  // peer route does.
  topo::GraphBuilder builder;
  const auto x = builder.add_as(1);
  const auto c = builder.add_as(2);
  const auto c2 = builder.add_as(5);
  const auto p = builder.add_as(3);
  const auto d = builder.add_as(4);
  builder.add_customer_provider(/*provider=*/x, /*customer=*/c);
  builder.add_customer_provider(c, c2);
  builder.add_customer_provider(c2, d);  // customer chain x -> c -> c2 -> d
  builder.add_peer(x, p);
  builder.add_sibling(p, d);  // p reaches d via sibling => customer class at p
  const topo::AsGraph graph = std::move(builder).build();
  // Conventional: the (longer) customer route wins.
  {
    MiroConvergenceModel model(graph, {d}, {});
    ASSERT_TRUE(model.run_round_robin().converged);
    EXPECT_EQ(model.route(x, d).bgp, (Path{x, c, c2, d}));
  }
  // Relaxed: the peer-learned route x-p-d is shorter within the shared band.
  {
    MiroConvergenceModel model(graph, {d}, relaxed_peering_options(graph));
    ASSERT_TRUE(model.run_round_robin().converged);
    EXPECT_EQ(model.route(x, d).bgp, (Path{x, p, d}));
  }
}

TEST(RelaxedPeering, ConvergesOnGeneratedTopologies) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    topo::GeneratorParams params = topo::profile("tiny");
    params.seed = seed;
    params.node_count = 120;
    const topo::AsGraph graph = topo::generate(params);
    for (NodeId dest : {NodeId{0}, NodeId{60}}) {
      MiroConvergenceModel model(graph, {dest},
                                 relaxed_peering_options(graph));
      EXPECT_TRUE(model.run_round_robin().converged)
          << "seed " << seed << " dest " << dest;
    }
  }
}

TEST(BackupLinks, CountOnPath) {
  BackupLinks backups;
  backups.add(1, 2);
  backups.add(3, 4);
  EXPECT_EQ(backups.count_on_path({0, 1, 2, 3}), 1u);
  EXPECT_EQ(backups.count_on_path({2, 1, 4, 3}), 2u);  // order-insensitive
  EXPECT_EQ(backups.count_on_path({0, 5, 6}), 0u);
  EXPECT_TRUE(backups.contains(2, 1));
}

TEST(BackupLinks, UnusedWhilePrimaryExists) {
  // s is dual-homed: primary provider p1, backup provider p2.
  topo::GraphBuilder builder;
  const auto core = builder.add_as(1);
  const auto p1 = builder.add_as(3);
  const auto p2 = builder.add_as(2);
  const auto s = builder.add_as(4);
  const auto d = builder.add_as(5);
  builder.add_customer_provider(core, p1);
  builder.add_customer_provider(core, p2);
  builder.add_customer_provider(p1, s);
  builder.add_customer_provider(p2, s);  // the backup homing
  builder.add_customer_provider(core, d);
  const topo::AsGraph graph = std::move(builder).build();
  BackupLinks backups;
  backups.add(p2, s);

  MiroConvergenceModel model(graph, {d}, backup_link_options(graph, backups));
  ASSERT_TRUE(model.run_round_robin().converged);
  // s routes via the primary even though p2's lower AS number would win
  // the conventional tie-break.
  EXPECT_EQ(model.route(s, d).bgp, (Path{s, p1, core, d}));
}

TEST(BackupLinks, CarryTrafficAfterPrimaryFailure) {
  // Same scenario with the primary homing removed: the backup link must
  // restore connectivity.
  topo::GraphBuilder builder;
  const auto core = builder.add_as(1);
  const auto p2 = builder.add_as(3);
  const auto s = builder.add_as(4);
  const auto d = builder.add_as(5);
  builder.add_customer_provider(core, p2);
  builder.add_customer_provider(p2, s);
  builder.add_customer_provider(core, d);
  const topo::AsGraph graph = std::move(builder).build();
  BackupLinks backups;
  backups.add(p2, s);
  MiroConvergenceModel model(graph, {d}, backup_link_options(graph, backups));
  ASSERT_TRUE(model.run_round_robin().converged);
  EXPECT_EQ(model.route(s, d).bgp, (Path{s, p2, core, d}));
}

TEST(BackupLinks, BackupPeeringRestoresPartitionedCustomerCone) {
  // Two providers with a backup peer link between them; d hangs off p2,
  // x's only provider is p1 and y's only link is a peering with p1. x
  // reaches d over the backup peering as over any peering. y does too, but
  // only because p1's route crosses a backup link: such routes go to every
  // neighbor, while the conventional rules keep a peer route from a peer.
  topo::GraphBuilder builder;
  const auto p1 = builder.add_as(1);
  const auto p2 = builder.add_as(2);
  const auto x = builder.add_as(3);
  const auto d = builder.add_as(4);
  const auto y = builder.add_as(5);
  builder.add_customer_provider(p1, x);
  builder.add_customer_provider(p2, d);
  builder.add_peer(p1, p2);
  builder.add_peer(p1, y);
  const topo::AsGraph graph = std::move(builder).build();
  BackupLinks backups;
  backups.add(p1, p2);
  MiroConvergenceModel model(graph, {d}, backup_link_options(graph, backups));
  ASSERT_TRUE(model.run_round_robin().converged);
  EXPECT_EQ(model.route(x, d).bgp, (Path{x, p1, p2, d}));
  EXPECT_EQ(model.route(y, d).bgp, (Path{y, p1, p2, d}));
}

TEST(BackupLinks, ConvergesOnGeneratedTopologiesWithRandomBackups) {
  for (std::uint64_t seed : {4ull, 5ull, 6ull}) {
    topo::GeneratorParams params = topo::profile("tiny");
    params.seed = seed;
    params.node_count = 120;
    const topo::AsGraph graph = topo::generate(params);
    Rng rng(seed);
    const BackupLinks backups = random_backup_links(graph, rng, 8);
    for (NodeId dest : {NodeId{0}, NodeId{60}}) {
      MiroConvergenceModel model(graph, {dest},
                                 backup_link_options(graph, backups));
      EXPECT_TRUE(model.run_round_robin().converged)
          << "seed " << seed << " dest " << dest;
      // Backup preference never reduces reachability.
      MiroConvergenceModel plain(graph, {dest}, {});
      ASSERT_TRUE(plain.run_round_robin().converged);
      for (NodeId node = 0; node < graph.node_count(); ++node)
        EXPECT_GE(model.route(node, dest).bgp.has_value(),
                  plain.route(node, dest).bgp.has_value())
            << "node " << node;
    }
  }
}

// ------------------------------------------------------------- Figure 7.1

TEST(Figure71, DivergesWithoutGuidelines) {
  const MiroGadget gadget = make_figure_7_1(Guideline::None);
  MiroConvergenceModel model = gadget.build();
  const auto result = model.run_round_robin();
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.cycle_detected)
      << "expected a provable oscillation on Figure 7.1";
}

class Figure71GuidelineTest : public ::testing::TestWithParam<Guideline> {};

TEST_P(Figure71GuidelineTest, ConvergesUnderGuideline) {
  const MiroGadget gadget = make_figure_7_1(GetParam());
  MiroConvergenceModel model = gadget.build();
  const auto result = model.run_round_robin();
  EXPECT_TRUE(result.converged) << to_string(GetParam());
  EXPECT_TRUE(model.is_stable());
}

INSTANTIATE_TEST_SUITE_P(Guidelines, Figure71GuidelineTest,
                         ::testing::Values(Guideline::StrictOnly,
                                           Guideline::B, Guideline::C,
                                           Guideline::D, Guideline::E),
                         [](const auto& info) {
                           return std::string(to_string(info.param)) == "strict-only"
                                      ? std::string("StrictOnly")
                                      : std::string(to_string(info.param));
                         });

TEST(Figure71, GuidelineBKeepsAllThreeTunnelsUp) {
  // Under Guideline B the tunnels ride on the (stable) BGP layer, so all
  // three coexist: A uses ABD, B uses BCD, C uses CAD.
  const MiroGadget gadget = make_figure_7_1(Guideline::B);
  MiroConvergenceModel model = gadget.build();
  ASSERT_TRUE(model.run_round_robin().converged);
  const NodeId a = gadget.nodes.at("A");
  const NodeId b = gadget.nodes.at("B");
  const NodeId c = gadget.nodes.at("C");
  const NodeId d = gadget.nodes.at("D");
  EXPECT_EQ(model.route(a, d).tunnel, (Path{a, b, d}));
  EXPECT_EQ(model.route(b, d).tunnel, (Path{b, c, d}));
  EXPECT_EQ(model.route(c, d).tunnel, (Path{c, a, d}));
  // The BGP layer stays on the direct provider routes.
  EXPECT_EQ(model.route(a, d).bgp, (Path{a, d}));
}

// ------------------------------------------------------------- Figure 7.2

TEST(Figure72, DivergesUnderStrictPolicyAlone) {
  const MiroGadget gadget = make_figure_7_2(Guideline::StrictOnly);
  MiroConvergenceModel model = gadget.build();
  const auto result = model.run_round_robin();
  EXPECT_FALSE(result.converged)
      << "strict policy alone must not fix Figure 7.2";
  EXPECT_TRUE(result.cycle_detected);
}

TEST(Figure72, GuidelineDConverges) {
  const MiroGadget gadget = make_figure_7_2(Guideline::D);
  MiroConvergenceModel model = gadget.build();
  const auto result = model.run_round_robin();
  EXPECT_TRUE(result.converged);
  // The id-order ≺ admits only tunnels whose responder precedes the prefix;
  // at least one of D's three cyclic tunnel wishes is denied, and the rest
  // are stable.
  const NodeId d = gadget.nodes.at("D");
  std::size_t tunnels = 0;
  for (const char* name : {"A", "B", "C"})
    if (model.route(d, gadget.nodes.at(name)).tunnel) ++tunnels;
  EXPECT_LT(tunnels, 3u);
}

TEST(Figure72, GuidelineEConverges) {
  const MiroGadget gadget = make_figure_7_2(Guideline::E);
  MiroConvergenceModel model = gadget.build();
  const auto result = model.run_round_robin();
  EXPECT_TRUE(result.converged);
  EXPECT_TRUE(model.is_stable());
  // E's local no-invalidation check leaves a maximal non-conflicting set of
  // tunnels established — at least one survives.
  const NodeId d = gadget.nodes.at("D");
  std::size_t tunnels = 0;
  for (const char* name : {"A", "B", "C"})
    if (model.route(d, gadget.nodes.at(name)).tunnel) ++tunnels;
  EXPECT_GE(tunnels, 1u);
}

TEST(Figure72, GuidelineBSideStepsTheOscillation) {
  const MiroGadget gadget = make_figure_7_2(Guideline::B);
  MiroConvergenceModel model = gadget.build();
  EXPECT_TRUE(model.run_round_robin().converged);
  // All three tunnels coexist because carriers are pure BGP routes.
  const NodeId d = gadget.nodes.at("D");
  for (const char* name : {"A", "B", "C"})
    EXPECT_TRUE(model.route(d, gadget.nodes.at(name)).tunnel.has_value());
}

TEST(Figure72, RandomFairSchedulesAgreeWithRoundRobin) {
  const MiroGadget strict_gadget = make_figure_7_2(Guideline::StrictOnly);
  const MiroGadget d_gadget = make_figure_7_2(Guideline::D);
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    // Divergent configuration stays divergent...
    MiroConvergenceModel bad = strict_gadget.build();
    Rng rng1(seed);
    EXPECT_FALSE(bad.run_random(rng1, 20000).converged);
    // ...and guideline-D configuration converges under random schedules.
    MiroConvergenceModel good = d_gadget.build();
    Rng rng2(seed);
    EXPECT_TRUE(good.run_random(rng2, 20000).converged);
  }
}

// --------------------------------------------------- random MIRO instances

class RandomMiroConvergence
    : public ::testing::TestWithParam<std::tuple<Guideline, std::uint64_t>> {
};

TEST_P(RandomMiroConvergence, GuidelineGuaranteesConvergence) {
  const auto [guideline, seed] = GetParam();
  topo::GeneratorParams params = topo::profile("tiny");
  params.node_count = 72;
  params.seed = seed;
  const topo::AsGraph graph = topo::generate(params);

  // Random tunnel wishes: a handful of (requester, responder, destination)
  // triples over a few destination prefixes.
  Rng rng(seed * 31 + 7);
  std::vector<NodeId> destinations;
  for (int i = 0; i < 4; ++i)
    destinations.push_back(
        static_cast<NodeId>(rng.next_below(graph.node_count())));
  std::sort(destinations.begin(), destinations.end());
  destinations.erase(std::unique(destinations.begin(), destinations.end()),
                     destinations.end());

  ModelOptions options;
  options.guideline = guideline;
  for (int i = 0; i < 12; ++i) {
    TunnelSpec spec;
    spec.requester = static_cast<NodeId>(rng.next_below(graph.node_count()));
    spec.responder = static_cast<NodeId>(rng.next_below(graph.node_count()));
    spec.destination = destinations[rng.next_below(destinations.size())];
    if (spec.requester == spec.responder ||
        spec.responder == spec.destination)
      continue;
    options.tunnels.push_back(spec);
  }
  if (guideline == Guideline::D) {
    options.partial_order = [](NodeId, NodeId first_downstream,
                               NodeId destination) {
      return first_downstream < destination;
    };
  }

  MiroConvergenceModel model(graph, destinations, options);
  const auto result = model.run_round_robin(512);
  EXPECT_TRUE(result.converged)
      << "guideline " << to_string(guideline) << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomMiroConvergence,
    ::testing::Combine(::testing::Values(Guideline::B, Guideline::C,
                                         Guideline::D, Guideline::E),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Model, FingerprintDistinguishesStates) {
  const MiroGadget gadget = make_figure_7_1(Guideline::None);
  MiroConvergenceModel model = gadget.build();
  const auto before = model.fingerprint();
  model.activate(gadget.nodes.at("A"));
  EXPECT_NE(model.fingerprint(), before);
}

TEST(Model, GuidelineDRequiresPartialOrder) {
  MiroGadget gadget = make_figure_7_2(Guideline::D);
  gadget.options.partial_order = nullptr;
  EXPECT_THROW(gadget.build(), Error);
}

TEST(Model, SynchronousRunnerDetectsCycles) {
  const MiroGadget gadget = make_figure_7_1(Guideline::None);
  MiroConvergenceModel model = gadget.build();
  const auto result = model.run_synchronous();
  EXPECT_FALSE(result.converged);
  EXPECT_TRUE(result.cycle_detected);
}

TEST(Model, RejectsOutOfRangeNodes) {
  const MiroGadget gadget = make_figure_7_1(Guideline::None);
  const auto past_end = static_cast<NodeId>(gadget.graph.node_count());
  EXPECT_THROW(MiroConvergenceModel(gadget.graph, {past_end}, {}), Error);
  const MiroConvergenceModel model = gadget.build();
  EXPECT_THROW(model.route(past_end, gadget.nodes.at("D")), Error);
}

}  // namespace
}  // namespace miro::conv
