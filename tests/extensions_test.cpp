// Tests for the protocol extensions: multi-hop negotiation (Section 3.3),
// origin prepending (Section 1.2 footnote), and the TE-mechanism ablation.
#include <gtest/gtest.h>

#include "bgp/route_solver.hpp"
#include "core/alternates.hpp"
#include "eval/te_comparison.hpp"
#include "scenarios.hpp"
#include "topology/generator.hpp"

namespace miro {
namespace {

using core::AlternatesEngine;
using core::ExportPolicy;
using test::Figure31Topology;

// --------------------------------------------------- multi-hop negotiation

/// A topology where single-hop negotiation cannot avoid the AS but a
/// responder asking its downstream can: source s -> m -> x -> d is the
/// default; m's only candidates both run through x; but m's downstream
/// neighbor g (reached via a candidate) has a second path around x.
struct MultihopGadget {
  topo::AsGraph graph;
  topo::NodeId s, m, g, x, h, d;

  MultihopGadget() {
    topo::GraphBuilder builder;
    s = builder.add_as(1);
    m = builder.add_as(2);
    g = builder.add_as(3);
    x = builder.add_as(4);
    h = builder.add_as(5);
    d = builder.add_as(6);
    // s is a customer of m; m is a customer of g and x; g is a customer of
    // x... careful: we need m's candidates to all cross x, while g knows a
    // clean path through h.
    builder.add_customer_provider(/*provider=*/m, /*customer=*/s);
    builder.add_customer_provider(g, m);
    builder.add_customer_provider(x, m);
    builder.add_customer_provider(x, g);   // g's default to d goes via x
    builder.add_customer_provider(h, g);   // but g also buys from h
    builder.add_customer_provider(x, d);   // d is x's customer
    builder.add_customer_provider(h, d);   // and h's customer
    graph = std::move(builder).build();
  }
};

TEST(Multihop, ResponderAsksDownstreamWhenOwnOffersFail) {
  MultihopGadget gadget;
  bgp::StableRouteSolver solver(gadget.graph);
  const bgp::RoutingTree tree = solver.solve(gadget.d);
  AlternatesEngine engine(solver);

  // Default path from s crosses x.
  const auto default_path = tree.path_of(gadget.s);
  ASSERT_NE(std::find(default_path.begin(), default_path.end(), gadget.x),
            default_path.end());

  // g prefers its customer route g-x?? No: d is not g's customer; g's
  // candidates toward d are provider routes via x and via h. Whichever g
  // selected, the OTHER one is its alternate — the one through h avoids x.
  const auto single =
      engine.avoid_as(tree, gadget.s, gadget.x, ExportPolicy::Flexible);
  const auto multi = engine.avoid_as_multihop(tree, gadget.s, gadget.x,
                                              ExportPolicy::Flexible);
  ASSERT_TRUE(multi.success);
  if (!single.success) {
    // The interesting case: only the relayed (multi-hop) offer works.
    EXPECT_TRUE(multi.used_multihop);
    ASSERT_TRUE(multi.chosen);
    EXPECT_FALSE(multi.chosen->traverses(gadget.x));
    EXPECT_EQ(multi.chosen->as_path.back(), gadget.d);
    EXPECT_EQ(multi.chosen->as_path.front(), gadget.s);
  }
}

TEST(Multihop, NeverWorseThanSingleHop) {
  const topo::AsGraph graph = topo::generate(topo::profile("tiny"));
  bgp::StableRouteSolver solver(graph);
  AlternatesEngine engine(solver);
  Rng rng(99);
  std::size_t checked = 0;
  std::size_t multihop_only = 0;
  for (int attempt = 0; attempt < 800 && checked < 120; ++attempt) {
    const auto dest =
        static_cast<topo::NodeId>(rng.next_below(graph.node_count()));
    const auto source =
        static_cast<topo::NodeId>(rng.next_below(graph.node_count()));
    if (source == dest) continue;
    const bgp::RoutingTree tree = solver.solve(dest);
    if (!tree.reachable(source)) continue;
    const auto path = tree.path_of(source);
    if (path.size() < 4) continue;
    const topo::NodeId avoid = path[2];
    if (avoid == dest || graph.has_edge(source, avoid)) continue;
    ++checked;
    for (ExportPolicy policy : core::kAllPolicies) {
      const auto single = engine.avoid_as(tree, source, avoid, policy);
      const auto multi =
          engine.avoid_as_multihop(tree, source, avoid, policy);
      EXPECT_GE(multi.success, single.success);
      EXPECT_GE(multi.paths_received, single.paths_received);
      if (multi.success) {
        ASSERT_TRUE(multi.chosen);
        EXPECT_FALSE(multi.chosen->traverses(avoid));
        // The spliced path is loop-free.
        auto sorted = multi.chosen->as_path;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                  sorted.end());
      }
      if (multi.success && !single.success &&
          policy == ExportPolicy::Flexible)
        ++multihop_only;
    }
  }
  EXPECT_GE(checked, 100u);
  // Multi-hop must contribute at least occasionally on a real topology.
  EXPECT_GT(multihop_only, 0u);
}

// ---------------------------------------------------------- prepending

TEST(Prepend, ShiftsTieBrokenSourcesOnly) {
  Figure31Topology fig;
  bgp::StableRouteSolver solver(fig.graph);
  // Toward F nothing changes class-wise; check A's provider choice instead:
  // A picks B over D on the next-hop tie-break. If F... use destination E:
  // A reaches E via B (next-hop ASN 2 < 4). Prepending on B's link should
  // push A to D.
  const bgp::RoutingTree plain = solver.solve(fig.e);
  ASSERT_EQ(plain.path_of(fig.a),
            (std::vector<topo::NodeId>{fig.a, fig.b, fig.e}));
  const bgp::RoutingTree padded =
      solver.solve_prepended(fig.e, bgp::OriginPrepend{fig.b, 2});
  EXPECT_EQ(padded.path_of(fig.a),
            (std::vector<topo::NodeId>{fig.a, fig.d, fig.e}));
  // The class hierarchy is untouched: E's providers still use their direct
  // customer routes.
  EXPECT_EQ(padded.path_of(fig.b),
            (std::vector<topo::NodeId>{fig.b, fig.e}));
}

TEST(Prepend, CannotOverrideLocalPreference) {
  // x has a customer route and a provider route to d; prepending on the
  // customer link cannot make x switch (local preference first).
  topo::GraphBuilder builder;
  const auto x = builder.add_as(1);
  const auto c = builder.add_as(2);
  const auto p = builder.add_as(3);
  const auto d = builder.add_as(4);
  builder.add_customer_provider(/*provider=*/x, /*customer=*/c);
  builder.add_customer_provider(p, x);
  builder.add_customer_provider(c, d);  // d customer of c
  builder.add_customer_provider(p, d);  // d customer of p
  const topo::AsGraph graph = std::move(builder).build();
  bgp::StableRouteSolver solver(graph);
  const bgp::RoutingTree plain = solver.solve(d);
  ASSERT_EQ(plain.route_class(x), bgp::RouteClass::Customer);
  // Prepend heavily toward c: x still refuses the provider path via p.
  const bgp::RoutingTree padded =
      solver.solve_prepended(d, bgp::OriginPrepend{c, 10});
  EXPECT_EQ(padded.route_class(x), bgp::RouteClass::Customer);
  EXPECT_EQ(padded.path_of(x), plain.path_of(x));
}

TEST(Prepend, RequiresAdjacency) {
  Figure31Topology fig;
  bgp::StableRouteSolver solver(fig.graph);
  EXPECT_THROW(solver.solve_prepended(fig.f, bgp::OriginPrepend{fig.a, 1}),
               Error);
}

// ---------------------------------------------------------- TE ablation

TEST(TeComparison, RunsAndOrdersSensibly) {
  eval::EvalConfig config;
  config.profile = "tiny";
  config.destination_samples = 8;
  config.sources_per_destination = 8;
  const eval::ExperimentPlan plan(config);
  eval::TeComparisonConfig te_config;
  te_config.stub_samples = 30;
  const auto result = eval::run_te_comparison(plan, te_config);
  ASSERT_EQ(result.mechanisms.size(), 5u);  // miro, deagg, 3 prepend depths
  const auto& miro = result.mechanisms[0];
  const auto& deagg = result.mechanisms[1];
  EXPECT_EQ(miro.global_state_entries, 2u);
  EXPECT_EQ(deagg.global_state_entries, plan.graph().node_count());
  // Deeper prepending never moves less than shallower prepending (median).
  EXPECT_LE(result.mechanisms[2].median_moved,
            result.mechanisms[4].median_moved + 1e-9);
  // Every mechanism's errors/moves are valid fractions.
  for (const auto& m : result.mechanisms) {
    EXPECT_GE(m.median_moved, 0.0);
    EXPECT_LE(m.median_moved, 1.0);
    EXPECT_GE(m.median_targeting_error, 0.0);
    EXPECT_LE(m.median_targeting_error, result.target_shift + 1e-9);
  }
}

TEST(TeComparison, PrintsTable) {
  eval::EvalConfig config;
  config.profile = "tiny";
  config.destination_samples = 4;
  config.sources_per_destination = 4;
  const eval::ExperimentPlan plan(config);
  eval::TeComparisonConfig te_config;
  te_config.stub_samples = 10;
  std::ostringstream out;
  eval::print(eval::run_te_comparison(plan, te_config), out);
  EXPECT_NE(out.str().find("miro-tunnel"), std::string::npos);
  EXPECT_NE(out.str().find("prepend-x3"), std::string::npos);
}

}  // namespace
}  // namespace miro
