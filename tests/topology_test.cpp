#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "bgp/route_solver.hpp"
#include "common/error.hpp"
#include "topology/as_graph.hpp"
#include "topology/generator.hpp"
#include "topology/inference.hpp"
#include "topology/metrics.hpp"
#include "topology/serialization.hpp"

namespace miro::topo {
namespace {

TEST(AsGraph, AddAndQueryEdges) {
  AsGraph graph;
  NodeId a = graph.add_as(100);
  NodeId b = graph.add_as(200);
  NodeId c = graph.add_as(300);
  graph.add_customer_provider(/*provider=*/a, /*customer=*/b);
  graph.add_peer(b, c);
  EXPECT_EQ(graph.node_count(), 3u);
  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_TRUE(graph.has_edge(a, b));
  EXPECT_FALSE(graph.has_edge(a, c));
  EXPECT_EQ(graph.relationship(a, b), Relationship::Customer);
  EXPECT_EQ(graph.relationship(b, a), Relationship::Provider);
  EXPECT_EQ(graph.relationship(b, c), Relationship::Peer);
}

TEST(AsGraph, RejectsDuplicatesAndSelfLoops) {
  AsGraph graph;
  NodeId a = graph.add_as(1);
  NodeId b = graph.add_as(2);
  graph.add_peer(a, b);
  EXPECT_THROW(graph.add_peer(a, b), Error);
  EXPECT_THROW(graph.add_customer_provider(a, b), Error);
  EXPECT_THROW(graph.add_peer(a, a), Error);
  EXPECT_THROW(graph.add_as(1), Error);
}

TEST(AsGraph, FindByAsNumber) {
  AsGraph graph;
  NodeId a = graph.add_as(65001);
  EXPECT_EQ(graph.find(65001), a);
  EXPECT_EQ(graph.find(65002), kInvalidNode);
  EXPECT_THROW(graph.require_node(65002), Error);
}

TEST(AsGraph, StubClassification) {
  AsGraph graph;
  NodeId provider = graph.add_as(1);
  NodeId provider2 = graph.add_as(2);
  NodeId single = graph.add_as(3);
  NodeId multi = graph.add_as(4);
  NodeId peerish = graph.add_as(5);
  graph.add_customer_provider(provider, single);
  graph.add_customer_provider(provider, multi);
  graph.add_customer_provider(provider2, multi);
  graph.add_customer_provider(provider, peerish);
  graph.add_peer(peerish, single);  // peering disqualifies both as stubs
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
  AsGraph graph;
  const NodeId a = graph.add_as(1);
  graph.add_as(2);
  const auto bogus = static_cast<NodeId>(graph.node_count());
  EXPECT_THROW(graph.as_number(bogus), Error);
  EXPECT_THROW(graph.neighbors(bogus), Error);
  EXPECT_THROW(graph.degree(bogus), Error);
  EXPECT_THROW(graph.has_edge(a, bogus), Error);
  EXPECT_THROW(graph.has_edge(bogus, a), Error);
  EXPECT_THROW(graph.relationship(a, bogus), Error);
  EXPECT_THROW(graph.relationship(bogus, a), Error);
  EXPECT_THROW(graph.add_peer(a, bogus), Error);
  // The frozen CSR accessors keep the same contract.
  graph.finalize();
  EXPECT_THROW(graph.as_number(bogus), Error);
  EXPECT_THROW(graph.neighbors(bogus), Error);
  EXPECT_THROW(graph.degree(bogus), Error);
  EXPECT_THROW(graph.has_edge(a, bogus), Error);
  EXPECT_THROW(graph.relationship(a, bogus), Error);
  EXPECT_THROW(graph.relationship(kInvalidNode, a), Error);
}

TEST(AsGraph, FinalizePreservesEveryAnswer) {
  // Build an irregular little graph with all three relationship kinds and
  // non-sequential AS numbers (so the sorted ASN index path is exercised),
  // snapshot every query, freeze, and require identical answers from the
  // CSR layout.
  AsGraph graph;
  std::vector<NodeId> ids;
  const AsNumber asns[] = {700, 7, 70, 7000, 77, 707, 7700};
  for (AsNumber asn : asns) ids.push_back(graph.add_as(asn));
  graph.add_customer_provider(ids[0], ids[2]);
  graph.add_customer_provider(ids[0], ids[3]);
  graph.add_customer_provider(ids[1], ids[3]);
  graph.add_customer_provider(ids[2], ids[4]);
  graph.add_peer(ids[0], ids[1]);
  graph.add_peer(ids[2], ids[3]);
  graph.add_sibling(ids[5], ids[6]);
  graph.add_customer_provider(ids[1], ids[5]);

  const std::size_t n = graph.node_count();
  std::vector<std::vector<bool>> had_edge(n, std::vector<bool>(n));
  std::vector<std::vector<Relationship>> rels(n,
                                              std::vector<Relationship>(n));
  std::vector<std::size_t> degrees(n);
  for (NodeId x = 0; x < n; ++x) {
    degrees[x] = graph.degree(x);
    for (NodeId y = 0; y < n; ++y) {
      had_edge[x][y] = graph.has_edge(x, y);
      if (had_edge[x][y]) rels[x][y] = graph.relationship(x, y);
    }
  }
  const AsGraph::EdgeCounts before_counts = graph.edge_counts();
  const std::uint64_t before_bytes = graph.memory_bytes();

  graph.finalize();
  EXPECT_TRUE(graph.finalized());
  graph.finalize();  // idempotent

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
    for (NodeId y = 0; y < n; ++y) {
      EXPECT_EQ(graph.has_edge(x, y), had_edge[x][y]);
      if (had_edge[x][y]) {
        EXPECT_EQ(graph.relationship(x, y), rels[x][y]);
      }
    }
  }
  const AsGraph::EdgeCounts after_counts = graph.edge_counts();
  EXPECT_EQ(after_counts.customer_provider, before_counts.customer_provider);
  EXPECT_EQ(after_counts.peer, before_counts.peer);
  EXPECT_EQ(after_counts.sibling, before_counts.sibling);
  // The whole point of freezing: the CSR layout is smaller.
  EXPECT_LT(graph.memory_bytes(), before_bytes);
  EXPECT_EQ(graph.find(9999), kInvalidNode);

  // A frozen graph rejects mutation.
  EXPECT_THROW(graph.add_as(42), Error);
  EXPECT_THROW(graph.add_peer(ids[4], ids[5]), Error);
  EXPECT_THROW(graph.add_customer_provider(ids[4], ids[6]), Error);
  EXPECT_THROW(graph.add_sibling(ids[3], ids[6]), Error);
}

TEST(AsGraph, NeighborsWithFilter) {
  AsGraph graph;
  NodeId a = graph.add_as(1);
  NodeId b = graph.add_as(2);
  NodeId c = graph.add_as(3);
  graph.add_customer_provider(a, b);
  graph.add_customer_provider(a, c);
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

TEST(Generator, ProducesFinalizedGraphs) {
  const AsGraph graph = generate(profile("tiny"));
  EXPECT_TRUE(graph.finalized());
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
  AsGraph graph;
  NodeId hub = graph.add_as(1);
  for (AsNumber asn = 2; asn <= 5; ++asn)
    graph.add_customer_provider(hub, graph.add_as(asn));
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
  AsGraph truth;
  NodeId a = truth.add_as(1);
  NodeId b = truth.add_as(2);
  NodeId c = truth.add_as(3);
  truth.add_customer_provider(a, b);
  truth.add_peer(b, c);

  AsGraph inferred;
  NodeId ia = inferred.add_as(1);
  NodeId ib = inferred.add_as(2);
  NodeId id = inferred.add_as(4);
  inferred.add_customer_provider(ia, ib);  // correct
  inferred.add_peer(ib, id);               // spurious

  const InferenceAccuracy accuracy = compare_inference(truth, inferred);
  EXPECT_EQ(accuracy.classified_correct, 1u);
  EXPECT_EQ(accuracy.edges_missing, 1u);   // b-c never inferred
  EXPECT_EQ(accuracy.edges_spurious, 1u);  // b-d invented
}

}  // namespace
}  // namespace miro::topo
