// Tests for sibling contraction, BGP-table rendering, and Section 7.4's
// mixed-guideline convergence results.
#include <gtest/gtest.h>

#include <sstream>

#include "bgp/route_solver.hpp"
#include "bgp/table_format.hpp"
#include "convergence/gadgets.hpp"
#include "scenarios.hpp"
#include "topology/generator.hpp"
#include "topology/sibling_contraction.hpp"

namespace miro::topo {
namespace {

TEST(SiblingContraction, GroupsSiblingComponents) {
  GraphBuilder builder;
  const auto a = builder.add_as(10);
  const auto b = builder.add_as(20);
  const auto c = builder.add_as(30);   // sibling chain a-b-c
  const auto x = builder.add_as(40);
  const auto y = builder.add_as(50);
  builder.add_sibling(a, b);
  builder.add_sibling(b, c);
  builder.add_customer_provider(/*provider=*/a, /*customer=*/x);
  builder.add_peer(c, y);
  const AsGraph graph = std::move(builder).build();

  const ContractionResult result = contract_siblings(graph);
  EXPECT_EQ(result.group_count(), 3u);  // {a,b,c}, {x}, {y}
  EXPECT_EQ(result.largest_group(), 3u);
  EXPECT_EQ(result.multi_member_groups(), 1u);
  EXPECT_EQ(result.group_of[a], result.group_of[b]);
  EXPECT_EQ(result.group_of[b], result.group_of[c]);
  EXPECT_NE(result.group_of[a], result.group_of[x]);
  // The virtual node takes the smallest member's AS number.
  EXPECT_EQ(result.graph.as_number(result.group_of[a]), 10u);
  // Projected edges keep their relationships, now from the group.
  const NodeId ga = result.group_of[a];
  const NodeId gx = result.group_of[x];
  const NodeId gy = result.group_of[y];
  EXPECT_EQ(result.graph.relationship(ga, gx), Relationship::Customer);
  EXPECT_EQ(result.graph.relationship(ga, gy), Relationship::Peer);
  EXPECT_EQ(result.graph.edge_counts().sibling, 0u);
}

TEST(SiblingContraction, GraphWithoutSiblingsIsIsomorphic) {
  test::Figure31Topology fig;
  const ContractionResult result = contract_siblings(fig.graph);
  EXPECT_EQ(result.graph.node_count(), fig.graph.node_count());
  EXPECT_EQ(result.graph.edge_count(), fig.graph.edge_count());
  EXPECT_EQ(result.multi_member_groups(), 0u);
}

TEST(SiblingContraction, RouteClassesMatchTransparentClassification) {
  // On a generated topology with sibling links, the solver's class for each
  // node (computed with transparent sibling classification) must equal the
  // class computed on the contracted graph for the corresponding group.
  GeneratorParams params = profile("tiny");
  params.sibling_link_fraction = 0.06;  // plenty of siblings
  const AsGraph graph = generate(params);
  const ContractionResult contraction = contract_siblings(graph);
  ASSERT_GT(contraction.multi_member_groups(), 0u);

  bgp::StableRouteSolver original(graph);
  bgp::StableRouteSolver contracted(contraction.graph);
  std::size_t compared = 0;
  for (NodeId dest = 0; dest < graph.node_count(); dest += 17) {
    const auto dest_group = contraction.group_of[dest];
    const auto tree = original.solve(dest);
    const auto ctree = contracted.solve(dest_group);
    for (NodeId node = 0; node < graph.node_count(); node += 5) {
      const auto group = contraction.group_of[node];
      if (group == dest_group) continue;
      // Reachability must agree.
      ASSERT_EQ(tree.reachable(node), ctree.reachable(group))
          << "node " << node << " dest " << dest;
      if (!tree.reachable(node)) continue;
      // Route classes agree whenever the group is a singleton (members of a
      // multi-AS group can individually have better classes than the
      // group-level abstraction exposes).
      if (contraction.members[group].size() == 1) {
        EXPECT_EQ(tree.route_class(node), ctree.route_class(group))
            << "node " << node << " dest " << dest;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100u);
}

}  // namespace
}  // namespace miro::topo

namespace miro::bgp {
namespace {

TEST(TableFormat, RendersTable11Style) {
  test::Figure31Topology fig;
  StableRouteSolver solver(fig.graph);
  const RoutingTree tree = solver.solve(fig.f);
  const auto entries = bgp_table_for(solver, tree, fig.b);
  ASSERT_EQ(entries.size(), 2u);
  // Exactly one best entry, and it is B's selected route BEF.
  std::size_t best_count = 0;
  for (const auto& entry : entries) {
    if (entry.best) {
      ++best_count;
      EXPECT_EQ(entry.as_path, (std::vector<topo::AsNumber>{5, 6}));
    }
    EXPECT_EQ(entry.prefix.to_string(), "0.6.0.0/16");
  }
  EXPECT_EQ(best_count, 1u);

  std::ostringstream out;
  print_bgp_table(entries, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("*>"), std::string::npos);
  EXPECT_NE(text.find("0.6.0.0/16"), std::string::npos);
  // The repeated prefix cell is blanked on continuation rows.
  EXPECT_EQ(text.find("0.6.0.0/16"), text.rfind("0.6.0.0/16"));
}

}  // namespace
}  // namespace miro::bgp

namespace miro::conv {
namespace {

TEST(MixedGuidelines, CAndDNodesConvergeTogether) {
  // Section 7.4: "if each AS conforms to either Guidelines A and C, or
  // Guidelines A and D, convergence is still guaranteed."
  const MiroGadget base = make_figure_7_2(Guideline::D);
  MiroGadget gadget = base;
  gadget.options.guideline_of = [](NodeId node) {
    return node % 2 == 0 ? Guideline::C : Guideline::D;
  };
  MiroConvergenceModel model = gadget.build();
  EXPECT_TRUE(model.run_round_robin().converged);
}

TEST(MixedGuidelines, CAndENodesConvergeTogether) {
  const MiroGadget base = make_figure_7_2(Guideline::E);
  MiroGadget gadget = base;
  gadget.options.guideline_of = [](NodeId node) {
    return node % 2 == 0 ? Guideline::C : Guideline::E;
  };
  MiroConvergenceModel model = gadget.build();
  EXPECT_TRUE(model.run_round_robin().converged);
}

TEST(MixedGuidelines, RandomMixesConverge) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    topo::GeneratorParams params = topo::profile("tiny");
    params.node_count = 64;
    params.seed = seed;
    const topo::AsGraph graph = topo::generate(params);
    Rng rng(seed * 101);
    std::vector<NodeId> destinations;
    for (int i = 0; i < 3; ++i)
      destinations.push_back(
          static_cast<NodeId>(rng.next_below(graph.node_count())));
    std::sort(destinations.begin(), destinations.end());
    destinations.erase(
        std::unique(destinations.begin(), destinations.end()),
        destinations.end());

    ModelOptions options;
    for (int i = 0; i < 10; ++i) {
      TunnelSpec spec;
      spec.requester =
          static_cast<NodeId>(rng.next_below(graph.node_count()));
      spec.responder =
          static_cast<NodeId>(rng.next_below(graph.node_count()));
      spec.destination = destinations[rng.next_below(destinations.size())];
      if (spec.requester == spec.responder ||
          spec.responder == spec.destination)
        continue;
      options.tunnels.push_back(spec);
    }
    // Random per-AS choice among the provably safe guidelines.
    std::vector<Guideline> assignment(graph.node_count());
    for (auto& g : assignment) {
      const Guideline safe[] = {Guideline::B, Guideline::C, Guideline::D,
                                Guideline::E};
      g = safe[rng.next_below(4)];
    }
    options.guideline_of = [assignment](NodeId node) {
      return assignment[node];
    };
    options.partial_order = [](NodeId, NodeId fd, NodeId dest) {
      return fd < dest;
    };
    MiroConvergenceModel model(graph, destinations, options);
    EXPECT_TRUE(model.run_round_robin(512).converged) << "seed " << seed;
  }
}

TEST(MixedGuidelines, RequiresPartialOrderOnlyWhenDNodesExist) {
  MiroGadget gadget = make_figure_7_2(Guideline::E);
  gadget.options.partial_order = nullptr;
  gadget.options.guideline_of = [](NodeId) { return Guideline::E; };
  EXPECT_NO_THROW(gadget.build());
  gadget.options.guideline_of = [](NodeId node) {
    return node == 0 ? Guideline::D : Guideline::E;
  };
  EXPECT_THROW(gadget.build(), Error);
}

}  // namespace
}  // namespace miro::conv
