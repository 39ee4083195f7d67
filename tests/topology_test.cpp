#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bgp/route_solver.hpp"
#include "common/error.hpp"
#include "convergence/gadgets.hpp"
#include "topology/as_graph.hpp"
#include "topology/figure31.hpp"
#include "topology/generator.hpp"
#include "topology/inference.hpp"
#include "topology/metrics.hpp"
#include "topology/serialization.hpp"

namespace miro::topo {
namespace {

TEST(AsGraph, AddAndQueryEdges) {
  GraphBuilder builder;
  NodeId a = builder.add_as(100);
  NodeId b = builder.add_as(200);
  NodeId c = builder.add_as(300);
  builder.add_customer_provider(/*provider=*/a, /*customer=*/b);
  builder.add_peer(b, c);
  const AsGraph graph = std::move(builder).build();
  EXPECT_EQ(graph.node_count(), 3u);
  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_TRUE(graph.has_edge(a, b));
  EXPECT_FALSE(graph.has_edge(a, c));
  EXPECT_EQ(graph.relationship(a, b), Relationship::Customer);
  EXPECT_EQ(graph.relationship(b, a), Relationship::Provider);
  EXPECT_EQ(graph.relationship(b, c), Relationship::Peer);
}

TEST(AsGraph, RejectsDuplicatesAndSelfLoops) {
  GraphBuilder builder;
  NodeId a = builder.add_as(1);
  NodeId b = builder.add_as(2);
  builder.add_peer(a, b);
  EXPECT_THROW(builder.add_peer(a, b), Error);
  EXPECT_THROW(builder.add_customer_provider(a, b), Error);
  EXPECT_THROW(builder.add_sibling(b, a), Error);
  EXPECT_THROW(builder.add_peer(a, a), Error);
  EXPECT_THROW(builder.add_as(1), Error);
  // The rejected calls left nothing behind.
  EXPECT_EQ(builder.edge_count(), 1u);
  EXPECT_EQ(builder.degree(a), 1u);
  const AsGraph graph = std::move(builder).build();
  EXPECT_EQ(graph.node_count(), 2u);
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_EQ(graph.relationship(a, b), Relationship::Peer);
}

TEST(AsGraph, FindByAsNumber) {
  GraphBuilder builder;
  NodeId a = builder.add_as(65001);
  EXPECT_EQ(builder.find(65001), a);
  EXPECT_EQ(builder.find(65002), kInvalidNode);
  const AsGraph graph = std::move(builder).build();
  EXPECT_EQ(graph.find(65001), a);
  EXPECT_EQ(graph.find(65002), kInvalidNode);
  EXPECT_THROW(graph.require_node(65002), Error);
}

TEST(AsGraph, StubClassification) {
  GraphBuilder builder;
  NodeId provider = builder.add_as(1);
  NodeId provider2 = builder.add_as(2);
  NodeId single = builder.add_as(3);
  NodeId multi = builder.add_as(4);
  NodeId peerish = builder.add_as(5);
  builder.add_customer_provider(provider, single);
  builder.add_customer_provider(provider, multi);
  builder.add_customer_provider(provider2, multi);
  builder.add_customer_provider(provider, peerish);
  builder.add_peer(peerish, single);  // peering disqualifies both as stubs
  const AsGraph graph = std::move(builder).build();
  EXPECT_FALSE(graph.is_stub(single));
  EXPECT_TRUE(graph.is_stub(multi));
  EXPECT_TRUE(graph.is_multi_homed_stub(multi));
  EXPECT_FALSE(graph.is_stub(peerish));
  EXPECT_FALSE(graph.is_stub(provider));
}

TEST(AsGraph, ReverseRelationship) {
  EXPECT_EQ(reverse(Relationship::Customer), Relationship::Provider);
  EXPECT_EQ(reverse(Relationship::Provider), Relationship::Customer);
  EXPECT_EQ(reverse(Relationship::Peer), Relationship::Peer);
  EXPECT_EQ(reverse(Relationship::Sibling), Relationship::Sibling);
}

TEST(AsGraph, ReverseThrowsOnCorruptValue) {
  // A miscast byte must throw rather than silently classify as some edge
  // kind and leak into export policy.
  EXPECT_THROW(reverse(static_cast<Relationship>(200)), Error);
}

TEST(AsGraph, AccessorsRejectOutOfRangeIds) {
  GraphBuilder builder;
  const NodeId a = builder.add_as(1);
  builder.add_as(2);
  const auto bogus = static_cast<NodeId>(builder.node_count());
  EXPECT_THROW(builder.add_peer(a, bogus), Error);
  EXPECT_THROW(builder.add_customer_provider(bogus, a), Error);
  EXPECT_THROW(builder.add_sibling(a, kInvalidNode), Error);
  EXPECT_THROW(builder.degree(bogus), Error);
  EXPECT_THROW(builder.has_edge(a, bogus), Error);
  const AsGraph graph = std::move(builder).build();
  EXPECT_THROW(graph.as_number(bogus), Error);
  EXPECT_THROW(graph.neighbors(bogus), Error);
  EXPECT_THROW(graph.degree(bogus), Error);
  EXPECT_THROW(graph.has_edge(a, bogus), Error);
  EXPECT_THROW(graph.has_edge(bogus, a), Error);
  EXPECT_THROW(graph.relationship(a, bogus), Error);
  EXPECT_THROW(graph.relationship(bogus, a), Error);
  EXPECT_THROW(graph.relationship(kInvalidNode, a), Error);
}

TEST(AsGraph, BuildPreservesEveryAnswer) {
  // Build an irregular little graph with all three relationship kinds and
  // non-sequential AS numbers (so the sorted ASN index path is exercised),
  // snapshot every query the builder answers, build, and require identical
  // answers — and the added relationships — from the CSR layout.
  GraphBuilder builder;
  std::vector<NodeId> ids;
  const AsNumber asns[] = {700, 7, 70, 7000, 77, 707, 7700};
  for (AsNumber asn : asns) ids.push_back(builder.add_as(asn));
  builder.add_customer_provider(ids[0], ids[2]);
  builder.add_customer_provider(ids[0], ids[3]);
  builder.add_customer_provider(ids[1], ids[3]);
  builder.add_customer_provider(ids[2], ids[4]);
  builder.add_peer(ids[0], ids[1]);
  builder.add_peer(ids[2], ids[3]);
  builder.add_sibling(ids[5], ids[6]);
  builder.add_customer_provider(ids[1], ids[5]);

  const std::size_t n = builder.node_count();
  std::vector<std::vector<bool>> had_edge(n, std::vector<bool>(n));
  std::vector<std::size_t> degrees(n);
  for (NodeId x = 0; x < n; ++x) {
    degrees[x] = builder.degree(x);
    EXPECT_EQ(builder.find(asns[x]), x);
    for (NodeId y = 0; y < n; ++y) had_edge[x][y] = builder.has_edge(x, y);
  }
  EXPECT_EQ(builder.edge_count(), 8u);

  const AsGraph graph = std::move(builder).build();
  EXPECT_EQ(graph.node_count(), n);
  EXPECT_EQ(graph.edge_count(), 8u);
  for (NodeId x = 0; x < n; ++x) {
    EXPECT_EQ(graph.degree(x), degrees[x]);
    EXPECT_EQ(graph.as_number(x), asns[x]);
    EXPECT_EQ(graph.find(asns[x]), x);
    // CSR segments are sorted by neighbor id.
    const NeighborRange range = graph.neighbors(x);
    for (std::size_t i = 1; i < range.size(); ++i)
      EXPECT_LT(range[i - 1].node, range[i].node);
    for (NodeId y = 0; y < n; ++y)
      EXPECT_EQ(graph.has_edge(x, y), had_edge[x][y]);
  }
  EXPECT_EQ(graph.relationship(ids[0], ids[2]), Relationship::Customer);
  EXPECT_EQ(graph.relationship(ids[3], ids[1]), Relationship::Provider);
  EXPECT_EQ(graph.relationship(ids[3], ids[2]), Relationship::Peer);
  EXPECT_EQ(graph.relationship(ids[6], ids[5]), Relationship::Sibling);
  EXPECT_EQ(graph.relationship(ids[5], ids[1]), Relationship::Provider);
  EXPECT_THROW(graph.relationship(ids[4], ids[5]), Error);
  const AsGraph::EdgeCounts counts = graph.edge_counts();
  EXPECT_EQ(counts.customer_provider, 5u);
  EXPECT_EQ(counts.peer, 2u);
  EXPECT_EQ(counts.sibling, 1u);
  EXPECT_EQ(graph.find(9999), kInvalidNode);
}

TEST(AsGraph, NeighborsWithFilter) {
  GraphBuilder builder;
  NodeId a = builder.add_as(1);
  NodeId b = builder.add_as(2);
  NodeId c = builder.add_as(3);
  builder.add_customer_provider(a, b);
  builder.add_customer_provider(a, c);
  const AsGraph graph = std::move(builder).build();
  auto customers = graph.neighbors_with(a, Relationship::Customer);
  EXPECT_EQ(customers.size(), 2u);
  EXPECT_TRUE(graph.neighbors_with(a, Relationship::Peer).empty());
}

class GeneratorProfileTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorProfileTest, ProducesInternetLikeGraph) {
  const GeneratorParams params = profile(GetParam(), 0.25);
  const AsGraph graph = generate(params);
  const TopologySummary summary = summarize(graph);

  EXPECT_EQ(summary.nodes, params.node_count);
  // Edge density like Table 5.1: roughly 2 links per node.
  EXPECT_GT(summary.edges, summary.nodes);
  EXPECT_LT(summary.edges, summary.nodes * 4);
  // The relationship mix is dominated by customer-provider links.
  EXPECT_GT(summary.customer_provider_links, summary.peer_links);
  EXPECT_GT(summary.peer_links, summary.sibling_links);
  // A large stub population with substantial multi-homing.
  EXPECT_GT(summary.stub_count, summary.nodes / 3);
  EXPECT_GT(summary.multi_homed_stub_count, summary.stub_count / 4);
  // Heavy-tailed degrees: the max degree dwarfs the average. (The factor is
  // bounded by node count; at the smallest scales 6x is the honest bar.)
  EXPECT_GT(static_cast<double>(summary.max_degree),
            summary.average_degree * 6);
}

TEST_P(GeneratorProfileTest, CustomerProviderHierarchyIsAcyclic) {
  const AsGraph graph = generate(profile(GetParam(), 0.15));
  // Providers are always earlier-created nodes, so customer->provider edges
  // must always point to a smaller node id.
  for (NodeId id = 0; id < graph.node_count(); ++id)
    for (const Neighbor& n : graph.neighbors(id))
      if (n.rel == Relationship::Provider) {
        EXPECT_LT(n.node, id);
      }
}

TEST_P(GeneratorProfileTest, EveryAsReachesEveryOtherAs) {
  const AsGraph graph = generate(profile(GetParam(), 0.15));
  bgp::StableRouteSolver solver(graph);
  // Valley-free reachability from a few destinations: everyone has a route.
  for (NodeId dest : {NodeId{0}, static_cast<NodeId>(graph.node_count() / 2),
                      static_cast<NodeId>(graph.node_count() - 1)}) {
    const bgp::RoutingTree tree = solver.solve(dest);
    EXPECT_EQ(tree.reachable_count(), graph.node_count())
        << "destination " << dest;
  }
}

INSTANTIATE_TEST_SUITE_P(Profiles, GeneratorProfileTest,
                         ::testing::Values("gao2000", "gao2003", "gao2005",
                                           "agarwal2004", "tiny"));

TEST(Generator, DeterministicForFixedSeed) {
  const AsGraph g1 = generate(profile("tiny"));
  const AsGraph g2 = generate(profile("tiny"));
  EXPECT_EQ(to_text(g1), to_text(g2));
}

TEST(Generator, MultiHomedFractionTracksParameter) {
  // The under-homing fix: every stub drawn as multi-homed must actually get
  // a second provider (retrying collisions instead of giving up), so the
  // realized fraction among pure stubs tracks multi_home_probability. Peer
  // and sibling links disqualify a few stubs afterwards, hence the
  // tolerance.
  for (const auto& [name, scale] :
       {std::pair<const char*, double>{"gao2005", 0.5},
        std::pair<const char*, double>{"internet2006", 0.05}}) {
    GeneratorParams params = profile(name, scale);
    params.seed ^= 17;  // a second seed per profile rides the loop below
    for (int round = 0; round < 2; ++round) {
      params.seed ^= 17;
      const AsGraph graph = generate(params);
      std::size_t stubs = 0;
      std::size_t multi = 0;
      for (NodeId node = 0; node < graph.node_count(); ++node) {
        if (!graph.is_stub(node)) continue;
        ++stubs;
        if (graph.is_multi_homed_stub(node)) ++multi;
      }
      ASSERT_GT(stubs, 0u) << name;
      const double fraction =
          static_cast<double>(multi) / static_cast<double>(stubs);
      EXPECT_NEAR(fraction, params.multi_home_probability, 0.08)
          << name << " seed " << params.seed;
    }
  }
}

TEST(Generator, ScaleAboveOneGrowsBeyondNominal) {
  const GeneratorParams nominal = profile("tiny");
  const GeneratorParams doubled = profile("tiny", 2.0);
  EXPECT_GT(doubled.node_count, nominal.node_count);
  const AsGraph graph = generate(doubled);
  EXPECT_EQ(graph.node_count(), doubled.node_count);
  // The full-scale profile nominally matches the measured 2006 Internet.
  EXPECT_GE(profile("internet2006").node_count, 50000u);
  EXPECT_THROW(profile("tiny", 0.0), Error);
  EXPECT_THROW(profile("tiny", -1.0), Error);
}

// `scale > 0` alone lets +inf through, and casting an infinite node count
// to an integer is undefined behaviour. NaN and a finite scale too large
// for 32-bit node ids are rejected the same way.
TEST(Generator, NonFiniteOrOverflowingScaleThrows) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const char* name : {"tiny", "gao2005", "internet2006"}) {
    EXPECT_THROW(profile(name, inf), Error) << name;
    EXPECT_THROW(profile(name, nan), Error) << name;
    EXPECT_THROW(profile(name, 1e12), Error) << name;
  }
}

TEST(Generator, UnknownProfileThrows) {
  EXPECT_THROW(profile("nonexistent"), Error);
}

TEST(Serialization, RoundTripPreservesGraph) {
  const AsGraph original = generate(profile("tiny"));
  const AsGraph reloaded = from_text(to_text(original));
  EXPECT_EQ(reloaded.node_count(), original.node_count());
  EXPECT_EQ(reloaded.edge_count(), original.edge_count());
  const auto c1 = original.edge_counts();
  const auto c2 = reloaded.edge_counts();
  EXPECT_EQ(c1.customer_provider, c2.customer_provider);
  EXPECT_EQ(c1.peer, c2.peer);
  EXPECT_EQ(c1.sibling, c2.sibling);
  // Loading renumbers nodes by first appearance, so compare by AS number:
  // every node has the same neighbors with the same relationships.
  for (NodeId node = 0; node < original.node_count(); ++node) {
    const AsNumber asn = original.as_number(node);
    const NodeId twin = reloaded.require_node(asn);
    ASSERT_EQ(reloaded.degree(twin), original.degree(node)) << "AS " << asn;
    for (const Neighbor& n : original.neighbors(node)) {
      const NodeId other = reloaded.require_node(original.as_number(n.node));
      EXPECT_EQ(reloaded.relationship(twin, other), n.rel) << "AS " << asn;
    }
  }
  // The same layout: the reloaded graph costs no more than the original
  // plus the sorted ASN index its renumbered AS numbers need.
  const std::uint64_t asn_index =
      original.node_count() * sizeof(std::pair<AsNumber, NodeId>);
  EXPECT_LE(reloaded.memory_bytes(), original.memory_bytes() + asn_index);
}

TEST(Serialization, ParsesCaidaStyleInput) {
  const std::string text =
      "# comment\n"
      "1|2|-1\n"
      "2|3|0\n"
      "3|4|2\n";
  const AsGraph graph = from_text(text);
  EXPECT_EQ(graph.node_count(), 4u);
  EXPECT_EQ(graph.relationship(graph.require_node(1), graph.require_node(2)),
            Relationship::Customer);
  EXPECT_EQ(graph.relationship(graph.require_node(2), graph.require_node(3)),
            Relationship::Peer);
  EXPECT_EQ(graph.relationship(graph.require_node(3), graph.require_node(4)),
            Relationship::Sibling);
}

TEST(Serialization, FileRoundTrip) {
  const AsGraph original = generate(profile("tiny"));
  const std::string path = ::testing::TempDir() + "/miro_topology_rt.txt";
  save_file(original, path);
  const AsGraph reloaded = load_file(path);
  // Loading assigns node ids by first appearance, so compare in the
  // load-canonical form: one load cycle on both sides.
  EXPECT_EQ(to_text(reloaded), to_text(from_text(to_text(original))));
  EXPECT_EQ(reloaded.node_count(), original.node_count());
  EXPECT_EQ(reloaded.edge_count(), original.edge_count());
  EXPECT_THROW(load_file(path + ".does-not-exist"), Error);
}

TEST(Serialization, RejectsMalformedLines) {
  EXPECT_THROW(from_text("1|2\n"), Error);
  EXPECT_THROW(from_text("1|2|7\n"), Error);
  EXPECT_THROW(from_text("a|2|-1\n"), Error);
}

TEST(Metrics, DegreeSequenceSortedDescending) {
  const AsGraph graph = generate(profile("tiny"));
  const auto degrees = degree_sequence(graph);
  ASSERT_EQ(degrees.size(), graph.node_count());
  for (std::size_t i = 1; i < degrees.size(); ++i)
    EXPECT_GE(degrees[i - 1], degrees[i]);
}

TEST(Metrics, NodesByDegreeDescendingIsConsistent) {
  const AsGraph graph = generate(profile("tiny"));
  const auto order = nodes_by_degree_descending(graph);
  ASSERT_EQ(order.size(), graph.node_count());
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_GE(graph.degree(order[i - 1]), graph.degree(order[i]));
}

TEST(Metrics, FractionWithDegreeAbove) {
  GraphBuilder builder;
  NodeId hub = builder.add_as(1);
  for (AsNumber asn = 2; asn <= 5; ++asn)
    builder.add_customer_provider(hub, builder.add_as(asn));
  const AsGraph graph = std::move(builder).build();
  EXPECT_DOUBLE_EQ(fraction_with_degree_above(graph, 3), 0.2);  // only hub
  EXPECT_DOUBLE_EQ(fraction_with_degree_above(graph, 0), 1.0);
}

// --- Relationship inference -------------------------------------------------

/// Builds observed AS paths by solving BGP routes from `vantage_count`
/// vantage destinations (what a RouteViews-style collector sees).
std::vector<AsPath> observed_paths(const AsGraph& graph,
                                   std::size_t vantage_count) {
  bgp::StableRouteSolver solver(graph);
  std::vector<AsPath> paths;
  for (std::size_t v = 0; v < vantage_count; ++v) {
    const auto dest = static_cast<NodeId>(
        (v * graph.node_count()) / vantage_count);
    const bgp::RoutingTree tree = solver.solve(dest);
    for (NodeId source = 0; source < graph.node_count(); ++source) {
      if (!tree.reachable(source) || source == dest) continue;
      AsPath path;
      for (NodeId node : tree.path_of(source))
        path.push_back(graph.as_number(node));
      paths.push_back(std::move(path));
    }
  }
  return paths;
}

// Every producer hands out the same layout, so every graph lists each
// node's neighbors in ascending node id, however its links were added.
TEST(AsGraph, EveryGraphSourceIteratesInNodeOrder) {
  const AsGraph generated = generate(profile("tiny"));
  // A snapshot with its lines shuffled adds every link in another order.
  std::vector<std::string> lines;
  std::istringstream text(to_text(generated));
  for (std::string line; std::getline(text, line);) lines.push_back(line);
  std::shuffle(lines.begin(), lines.end(), std::mt19937(7));
  std::string shuffled;
  for (const std::string& line : lines) shuffled += line + "\n";

  const Figure31 fig;
  const conv::MiroGadget gadget = conv::make_figure_7_1(conv::Guideline::None);
  const std::pair<const char*, AsGraph> graphs[] = {
      {"generated", generated},
      {"loaded", from_text(shuffled)},
      {"inferred", infer_gao(observed_paths(generated, 8))},
      {"figure31", fig.graph},
      {"figure_7_1", gadget.graph},
  };
  for (const auto& [name, graph] : graphs) {
    ASSERT_GT(graph.edge_count(), 0u) << name;
    for (NodeId node = 0; node < graph.node_count(); ++node) {
      const NeighborRange range = graph.neighbors(node);
      for (std::size_t i = 1; i < range.size(); ++i)
        EXPECT_LT(range[i - 1].node, range[i].node)
            << name << ": neighbors of node " << node;
    }
  }
}

TEST(Inference, GaoRecoversMostRelationshipsOnSyntheticTruth) {
  const AsGraph truth = generate(profile("tiny"));
  const auto paths = observed_paths(truth, 24);
  const AsGraph inferred = infer_gao(paths);
  const InferenceAccuracy accuracy = compare_inference(truth, inferred);
  // Gao's algorithm on rich path sets recovers the bulk of the edges it
  // observes and classifies most of them correctly.
  EXPECT_GT(accuracy.classified_correct + accuracy.classified_wrong, 0u);
  EXPECT_GT(accuracy.accuracy(), 0.75)
      << "correct=" << accuracy.classified_correct
      << " wrong=" << accuracy.classified_wrong;
}

TEST(Inference, RankInferenceProducesMostlyProviderCustomer) {
  const AsGraph truth = generate(profile("tiny"));
  const auto paths = observed_paths(truth, 24);
  const AsGraph inferred = infer_rank(paths);
  const InferenceAccuracy accuracy = compare_inference(truth, inferred);
  EXPECT_GT(accuracy.accuracy(), 0.5);
  // The rank algorithm infers no sibling links by design.
  EXPECT_EQ(inferred.edge_counts().sibling, 0u);
}

TEST(Inference, GaoClassifiesSimpleChain) {
  // Paths through a strict hierarchy: 30 is the top provider.
  // 10 <- 20 <- 30 -> 40 -> 50 (arrows point provider->customer).
  std::vector<AsPath> paths;
  for (int i = 0; i < 3; ++i) {
    paths.push_back({10, 20, 30, 40, 50});
    paths.push_back({50, 40, 30, 20, 10});
    paths.push_back({10, 20, 30});
    paths.push_back({50, 40, 30});
  }
  const AsGraph inferred = infer_gao(paths);
  const NodeId n20 = inferred.require_node(20);
  const NodeId n30 = inferred.require_node(30);
  const NodeId n40 = inferred.require_node(40);
  // 30 provides transit for 20 and 40.
  EXPECT_EQ(inferred.relationship(n30, n20), Relationship::Customer);
  EXPECT_EQ(inferred.relationship(n30, n40), Relationship::Customer);
}

TEST(Inference, GaoDetectsSiblingFromMutualTransit) {
  // 20 and 30 transit for each other across many paths (and carry enough
  // strong evidence in both directions).
  std::vector<AsPath> paths;
  for (int i = 0; i < 4; ++i) {
    paths.push_back({10, 20, 30, 99, 40});  // 99 tops; 20->30 uphill
    paths.push_back({40, 99, 30, 20, 10});  // downhill 30->20
    paths.push_back({11, 30, 20, 99, 41});  // uphill 30->20
    paths.push_back({41, 99, 20, 30, 11});  // downhill 20->30
    paths.push_back({10, 20, 99});
    paths.push_back({11, 30, 99});
    paths.push_back({40, 99});
    paths.push_back({41, 99});
  }
  const AsGraph inferred = infer_gao(paths);
  const NodeId n20 = inferred.require_node(20);
  const NodeId n30 = inferred.require_node(30);
  EXPECT_EQ(inferred.relationship(n20, n30), Relationship::Sibling);
}

TEST(Inference, CompareCountsMissingAndSpurious) {
  GraphBuilder truth_builder;
  NodeId a = truth_builder.add_as(1);
  NodeId b = truth_builder.add_as(2);
  NodeId c = truth_builder.add_as(3);
  truth_builder.add_customer_provider(a, b);
  truth_builder.add_peer(b, c);
  const AsGraph truth = std::move(truth_builder).build();

  GraphBuilder inferred_builder;
  NodeId ia = inferred_builder.add_as(1);
  NodeId ib = inferred_builder.add_as(2);
  NodeId id = inferred_builder.add_as(4);
  inferred_builder.add_customer_provider(ia, ib);  // correct
  inferred_builder.add_peer(ib, id);               // spurious
  const AsGraph inferred = std::move(inferred_builder).build();

  const InferenceAccuracy accuracy = compare_inference(truth, inferred);
  EXPECT_EQ(accuracy.classified_correct, 1u);
  EXPECT_EQ(accuracy.edges_missing, 1u);   // b-c never inferred
  EXPECT_EQ(accuracy.edges_spurious, 1u);  // b-d invented
}

}  // namespace
}  // namespace miro::topo
