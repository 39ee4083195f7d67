#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "eval/avoid_as.hpp"
#include "eval/dataset_report.hpp"
#include "eval/experiments.hpp"
#include "eval/path_diversity.hpp"
#include "eval/traffic_control.hpp"

namespace miro::eval {
namespace {

EvalConfig tiny_config() {
  EvalConfig config;
  config.profile = "tiny";
  config.destination_samples = 24;
  config.sources_per_destination = 16;
  config.seed = 7;
  return config;
}

const ExperimentPlan& tiny_plan() {
  static const ExperimentPlan* plan = new ExperimentPlan(tiny_config());
  return *plan;
}

TEST(ExperimentPlan, SamplesAreDeterministic) {
  const auto& plan = tiny_plan();
  const auto pairs1 = plan.sample_pairs(8);
  const auto pairs2 = plan.sample_pairs(8);
  ASSERT_EQ(pairs1.size(), pairs2.size());
  for (std::size_t i = 0; i < pairs1.size(); ++i) {
    EXPECT_EQ(pairs1[i].source, pairs2[i].source);
    EXPECT_EQ(pairs1[i].destination, pairs2[i].destination);
  }
  EXPECT_FALSE(pairs1.empty());
}

TEST(ExperimentPlan, TuplesExcludeNeighborsAndEndpoints) {
  const auto& plan = tiny_plan();
  for (const SampledTuple& tuple : plan.sample_tuples(16)) {
    EXPECT_NE(tuple.avoid, tuple.source);
    EXPECT_NE(tuple.avoid, tuple.destination);
    EXPECT_FALSE(plan.graph().has_edge(tuple.source, tuple.avoid))
        << "avoid AS must not be an immediate neighbor of the source";
    // The avoided AS lies on the source's default path.
    const auto path = plan.tree(tuple.tree_index).path_of(tuple.source);
    EXPECT_NE(std::find(path.begin(), path.end(), tuple.avoid), path.end());
  }
}

TEST(ReachableAvoiding, BasicProperties) {
  const auto& plan = tiny_plan();
  const auto tuples = plan.sample_tuples(8);
  ASSERT_FALSE(tuples.empty());
  // Avoiding a node never *creates* reachability: with no avoidance
  // constraint there is trivially a path (same node avoided = unused id).
  const SampledTuple& t = tuples.front();
  EXPECT_FALSE(
      reachable_avoiding(plan.graph(), t.source, t.destination, t.source));
  EXPECT_TRUE(reachable_avoiding(plan.graph(), t.source, t.source, t.avoid));
}

TEST(ReachableAvoiding, RejectsAnOutOfRangeAs) {
  const AsGraph& graph = tiny_plan().graph();
  const auto n = static_cast<NodeId>(graph.node_count());
  EXPECT_THROW(reachable_avoiding(graph, n + 3, 0, 1), Error);
  EXPECT_THROW(reachable_avoiding(graph, 0, n, 1), Error);
  EXPECT_THROW(reachable_avoiding(graph, 0, 1, n), Error);
  EXPECT_THROW(reachable_avoiding(graph, 0, 1, topo::kInvalidNode), Error);
  EXPECT_THROW(reachable_avoiding(graph, n, n, n), Error);
}

// ------------------------------------------------------ avoidance index

// The every-source oracle: one BFS from the destination with the avoided
// AS excised answers every source of one (destination, avoid) key. An
// avoided destination is reached by nothing, as reachable_avoiding has it.
std::vector<bool> bfs_avoid_set(const AsGraph& graph, NodeId destination,
                                NodeId avoid) {
  std::vector<bool> reachable(graph.node_count(), false);
  if (destination == avoid) return reachable;
  std::vector<NodeId> frontier{destination};
  reachable[destination] = true;
  while (!frontier.empty()) {
    const NodeId node = frontier.back();
    frontier.pop_back();
    for (const topo::Neighbor& n : graph.neighbors(node)) {
      if (n.node == avoid || reachable[n.node]) continue;
      reachable[n.node] = true;
      frontier.push_back(n.node);
    }
  }
  return reachable;
}

// Sources on which the index and the BFS oracle disagree for one key.
std::size_t index_mismatches(const AvoidanceIndex& index,
                             const AsGraph& graph, NodeId destination,
                             NodeId avoid) {
  const std::vector<bool> expected = bfs_avoid_set(graph, destination, avoid);
  std::size_t mismatches = 0;
  for (NodeId source = 0; source < graph.node_count(); ++source)
    if (index.reachable(source, destination, avoid) != expected[source])
      ++mismatches;
  return mismatches;
}

// Every (source, destination, avoid) triple of a small graph against
// reachable_avoiding.
void expect_matches_reachable_avoiding(const AsGraph& graph) {
  const AvoidanceIndex index(graph);
  for (NodeId a = 0; a < graph.node_count(); ++a)
    for (NodeId d = 0; d < graph.node_count(); ++d)
      for (NodeId s = 0; s < graph.node_count(); ++s)
        EXPECT_EQ(index.reachable(s, d, a), reachable_avoiding(graph, s, d, a))
            << "source " << s << " destination " << d << " avoid " << a;
}

TEST(AvoidanceIndex, MatchesTheBfsOnEveryKeyOfTiny) {
  const AsGraph& graph = tiny_plan().graph();
  const AvoidanceIndex index(graph);
  std::size_t mismatches = 0;
  for (NodeId d = 0; d < graph.node_count(); ++d)
    for (NodeId a = 0; a < graph.node_count(); ++a)
      mismatches += index_mismatches(index, graph, d, a);
  EXPECT_EQ(mismatches, 0u);
  // Sampled sources against the per-query BFS as well.
  Rng rng(23);
  for (int i = 0; i < 2000; ++i) {
    const auto s = static_cast<NodeId>(rng.next_below(graph.node_count()));
    const auto d = static_cast<NodeId>(rng.next_below(graph.node_count()));
    const auto a = static_cast<NodeId>(rng.next_below(graph.node_count()));
    EXPECT_EQ(index.reachable(s, d, a), reachable_avoiding(graph, s, d, a));
  }
}

TEST(AvoidanceIndex, MatchesTheBfsOnSampledGao2005Keys) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("generator seed " + std::to_string(seed));
    topo::GeneratorParams params = topo::profile("gao2005", 0.1);
    params.seed = seed;
    const AsGraph graph = topo::generate(params);
    const AvoidanceIndex index(graph);
    // Every avoid AS, cut vertices included, toward sampled destinations.
    Rng rng(seed);
    std::size_t mismatches = 0;
    for (std::size_t d : rng.sample_indices(graph.node_count(), 8)) {
      const auto destination = static_cast<NodeId>(d);
      for (NodeId a = 0; a < graph.node_count(); ++a)
        mismatches += index_mismatches(index, graph, destination, a);
      for (int i = 0; i < 20; ++i) {
        const auto s =
            static_cast<NodeId>(rng.next_below(graph.node_count()));
        const auto a =
            static_cast<NodeId>(rng.next_below(graph.node_count()));
        EXPECT_EQ(index.reachable(s, destination, a),
                  reachable_avoiding(graph, s, destination, a));
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }
}

TEST(AvoidanceIndex, MatchesTheBfsOnInternet2006TupleKeys) {
  EvalConfig config;
  config.profile = "internet2006";
  config.scale = 1.0;
  config.destination_samples = 4;
  config.sources_per_destination = 4;
  const ExperimentPlan plan(config);
  const auto& tuples = plan.sample_tuples(config.sources_per_destination);
  plan.precompute_avoidance(tuples);
  std::set<std::pair<NodeId, NodeId>> keys;
  for (const SampledTuple& tuple : tuples)
    keys.emplace(tuple.destination, tuple.avoid);
  ASSERT_GE(keys.size(), 20u);
  const AsGraph& graph = plan.graph();
  std::size_t mismatches = 0;
  for (const auto& [destination, avoid] : keys) {
    const std::vector<bool> expected =
        bfs_avoid_set(graph, destination, avoid);
    const AvoidanceView view = plan.avoid_reachable(destination, avoid);
    for (NodeId source = 0; source < graph.node_count(); ++source)
      if (view[source] != expected[source]) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  for (const SampledTuple& tuple : tuples) {
    const AvoidanceView view =
        plan.avoid_reachable(tuple.destination, tuple.avoid);
    EXPECT_EQ(view[tuple.source], reachable_avoiding(graph, tuple.source,
                                                     tuple.destination,
                                                     tuple.avoid));
  }
}

// Hand-built graphs. The DFS starts each component at its lowest node id
// and scans neighbors in ascending id, so each graph's DFS forest is known.
// Each test also checks every (source, destination, avoid) triple.

AsGraph hand_graph(std::size_t nodes,
                   std::initializer_list<std::pair<NodeId, NodeId>> links) {
  topo::GraphBuilder builder;
  for (std::size_t i = 0; i < nodes; ++i)
    builder.add_as(static_cast<topo::AsNumber>(i + 1));
  for (const auto& [a, b] : links) builder.add_peer(a, b);
  return std::move(builder).build();
}

TEST(AvoidanceIndex, AvoidingARootCutsEveryChildSubtree) {
  // Root 0 has the child subtrees {1, 3} and {2, 4}.
  const AsGraph star = hand_graph(5, {{0, 1}, {0, 2}, {1, 3}, {2, 4}});
  const AvoidanceIndex index(star);
  EXPECT_TRUE(index.reachable(3, 1, 0));
  EXPECT_TRUE(index.reachable(4, 2, 0));
  EXPECT_FALSE(index.reachable(3, 4, 0));
  EXPECT_FALSE(index.reachable(1, 2, 0));
  EXPECT_TRUE(index.reachable(0, 4, 1));
  EXPECT_FALSE(index.reachable(0, 3, 1));
  expect_matches_reachable_avoiding(star);
  // Closing the ring 0-1-3-4-2-0 leaves the root one child subtree
  // (1, 3, 4, 2), which stays whole without it.
  const AsGraph ring = hand_graph(5, {{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 4}});
  EXPECT_TRUE(AvoidanceIndex(ring).reachable(1, 2, 0));
  expect_matches_reachable_avoiding(ring);
}

TEST(AvoidanceIndex, AvoidingALeafCutsNothing) {
  const AsGraph star = hand_graph(5, {{0, 1}, {0, 2}, {1, 3}, {2, 4}});
  const AvoidanceIndex index(star);
  EXPECT_TRUE(index.reachable(1, 4, 3));
  EXPECT_TRUE(index.reachable(4, 0, 3));
  EXPECT_FALSE(index.reachable(3, 0, 3));
  EXPECT_FALSE(index.reachable(0, 3, 3));
  expect_matches_reachable_avoiding(star);
}

TEST(AvoidanceIndex, ACutVertexCutsOnlyTheSubtreeWithNoBackEdgeAboveIt) {
  // DFS: 0 -> 1 -> 2 -> 3 with the back edge 3-0 above 1, then 1 -> 4 -> 5
  // with the back edge 5-1 to 1 itself. Removing 1 cuts {4, 5} off and
  // leaves {2, 3} joined to 0.
  const AsGraph graph =
      hand_graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 4}, {4, 5}, {5, 1}});
  const AvoidanceIndex index(graph);
  EXPECT_TRUE(index.reachable(2, 0, 1));
  EXPECT_TRUE(index.reachable(4, 5, 1));
  EXPECT_FALSE(index.reachable(4, 0, 1));
  EXPECT_FALSE(index.reachable(5, 3, 1));
  EXPECT_TRUE(index.reachable(3, 1, 2));  // 2's subtree climbs above it
  EXPECT_TRUE(index.reachable(5, 0, 4));  // so does 4's, through 5-1
  expect_matches_reachable_avoiding(graph);
}

TEST(AvoidanceIndex, ComponentsStayApart) {
  // Components {0, 1, 2} (a path), {3, 4} and the isolated AS 5.
  const AsGraph graph = hand_graph(6, {{0, 1}, {1, 2}, {3, 4}});
  const AvoidanceIndex index(graph);
  // The avoided AS sits in another component.
  EXPECT_TRUE(index.reachable(0, 2, 3));
  EXPECT_TRUE(index.reachable(2, 0, 4));
  EXPECT_TRUE(index.reachable(3, 4, 5));
  EXPECT_FALSE(index.reachable(0, 2, 1));
  // Source and destination in different components.
  EXPECT_FALSE(index.reachable(0, 3, 1));
  EXPECT_FALSE(index.reachable(0, 4, 5));
  EXPECT_FALSE(index.reachable(5, 0, 3));
  EXPECT_TRUE(index.reachable(5, 5, 0));
  expect_matches_reachable_avoiding(graph);
}

TEST(AvoidanceIndex, DegenerateKeysFollowReachableAvoiding) {
  const ExperimentPlan& plan = tiny_plan();
  plan.precompute_avoidance({});
  const AsGraph& graph = plan.graph();
  const auto n = static_cast<NodeId>(graph.node_count());
  std::size_t reach_avoided_destination = 0;
  for (NodeId x = 0; x < n; ++x) {
    const NodeId y = (x + 1) % n;
    // d == a (s == d == a included): nothing reaches an avoided
    // destination.
    for (NodeId s = 0; s < n; ++s)
      if (plan.avoid_reachable(x, x)[s]) ++reach_avoided_destination;
    EXPECT_FALSE(reachable_avoiding(graph, y, x, x));
    EXPECT_FALSE(reachable_avoiding(graph, x, x, x));
    // s == a: an avoided source reaches nothing.
    EXPECT_FALSE(plan.avoid_reachable(y, x)[x]);
    EXPECT_FALSE(reachable_avoiding(graph, x, y, x));
    // s == d != a: a node reaches itself.
    EXPECT_TRUE(plan.avoid_reachable(x, y)[x]);
    EXPECT_TRUE(reachable_avoiding(graph, x, x, y));
  }
  EXPECT_EQ(reach_avoided_destination, 0u);
}

TEST(ExperimentPlan, AvoidReachableNeedsThePrecompute) {
  const ExperimentPlan plan(tiny_config());
  EXPECT_THROW(plan.avoid_reachable(0, 1), Error);
  plan.precompute_avoidance({});
  plan.precompute_avoidance(plan.sample_tuples(4));  // already built
  EXPECT_EQ(plan.avoid_reachable(0, 1)[2],
            reachable_avoiding(plan.graph(), 2, 0, 1));
}

TEST(ExperimentPlan, AvoidReachableRejectsAnOutOfRangeAs) {
  const ExperimentPlan& plan = tiny_plan();
  plan.precompute_avoidance({});
  const auto n = static_cast<NodeId>(plan.graph().node_count());
  EXPECT_THROW(plan.avoid_reachable(0, 1)[n], Error);
  EXPECT_THROW(plan.avoid_reachable(0, 1)[topo::kInvalidNode], Error);
  EXPECT_THROW(plan.avoid_reachable(n, 1)[0], Error);
  EXPECT_THROW(plan.avoid_reachable(0, n + 3)[2], Error);
  EXPECT_NO_THROW(plan.avoid_reachable(0, 1)[n - 1]);
  const AvoidanceIndex index(plan.graph());
  EXPECT_THROW(index.reachable(n, 0, 1), Error);
  EXPECT_THROW(index.reachable(0, n, 1), Error);
  EXPECT_THROW(index.reachable(0, 1, n), Error);
}

TEST(PathDiversity, PolicyAndScopeMonotonicity) {
  const DiversityResult result = run_path_diversity(tiny_plan());
  ASSERT_EQ(result.rows.size(), 6u);
  // Within each scope: strict <= export <= flexible on the mean.
  for (int scope = 0; scope < 2; ++scope) {
    const auto& strict = result.rows[scope * 3 + 0];
    const auto& exported = result.rows[scope * 3 + 1];
    const auto& flexible = result.rows[scope * 3 + 2];
    EXPECT_LE(strict.mean, exported.mean + 1e-9);
    EXPECT_LE(exported.mean, flexible.mean + 1e-9);
    EXPECT_GE(strict.fraction_zero, flexible.fraction_zero - 1e-9);
  }
  // MIRO exposes real diversity: flexible policy finds alternates for most
  // pairs.
  EXPECT_LT(result.rows[2].fraction_zero, 0.5);
  EXPECT_GT(result.rows[2].mean, 1.0);
}

TEST(PathDiversity, PrintsATable) {
  std::ostringstream out;
  print(run_path_diversity(tiny_plan()), out);
  EXPECT_NE(out.str().find("strict/s"), std::string::npos);
  EXPECT_NE(out.str().find("1-hop"), std::string::npos);
}

TEST(AvoidAs, Table52OrderingHolds) {
  const AvoidAsResult result = run_avoid_as(tiny_plan());
  ASSERT_GT(result.tuples, 0u);
  // The paper's headline ordering: Single < Multi/s <= Multi/e <= Multi/a
  // <= Source.
  EXPECT_LT(result.single_rate, result.multi_rate[0]);
  EXPECT_LE(result.multi_rate[0], result.multi_rate[1] + 1e-9);
  EXPECT_LE(result.multi_rate[1], result.multi_rate[2] + 1e-9);
  EXPECT_LE(result.multi_rate[2], result.source_rate + 1e-9);
  // And MIRO provides a real boost over single-path routing.
  EXPECT_GT(result.multi_rate[2], result.single_rate + 0.1);
}

TEST(AvoidAs, Table53StateIsBounded) {
  const AvoidAsResult result = run_avoid_as(tiny_plan());
  for (const auto& row : result.state_rows) {
    // Negotiation footprint stays tiny, as in the paper (~2-3 ASes).
    EXPECT_LT(row.avg_ases_contacted, 6.0);
    EXPECT_GE(row.avg_ases_contacted, 0.0);
    EXPECT_GE(row.avg_paths_received, 0.0);
  }
  // Looser policy => at least as many candidate paths per tuple.
  EXPECT_LE(result.state_rows[0].avg_paths_received,
            result.state_rows[2].avg_paths_received + 1e-9);
}

TEST(AvoidAs, PrintsTables) {
  const AvoidAsResult result = run_avoid_as(tiny_plan());
  std::ostringstream out;
  print_table_5_2(result, out);
  print_table_5_3(result, out);
  EXPECT_NE(out.str().find("Multi/a"), std::string::npos);
  EXPECT_NE(out.str().find("Path#/tuple"), std::string::npos);
}

TEST(IncrementalDeployment, GainGrowsWithDeployment) {
  const DeploymentResult result = run_incremental_deployment(tiny_plan());
  ASSERT_FALSE(result.points.empty());
  for (std::size_t i = 1; i < result.points.size(); ++i) {
    // Non-decreasing in deployment fraction for each policy.
    for (int p = 0; p < 3; ++p)
      EXPECT_GE(result.points[i].relative_gain[p] + 1e-9,
                result.points[i - 1].relative_gain[p]);
  }
  const auto& full = result.points.back();
  EXPECT_NEAR(full.relative_gain[2], 1.0, 1e-9);  // /a at 100% is the base
  // Top-degree deployment beats low-degree-first everywhere.
  for (const DeploymentPoint& point : result.points) {
    if (point.fraction < 0.5) {
      EXPECT_GE(point.relative_gain[2] + 1e-9, point.low_degree_first_gain);
    }
  }
  // A small top-degree core already yields a large share of the gain.
  for (const DeploymentPoint& point : result.points) {
    if (point.fraction >= 0.04 && point.fraction <= 0.06) {
      EXPECT_GT(point.relative_gain[2], 0.25);
    }
  }
}

TEST(TrafficControl, BoundsAndOrderings) {
  TrafficControlConfig config;
  config.stub_samples = 40;
  config.power_node_candidates = 4;
  const TrafficControlResult result =
      run_traffic_control(tiny_plan(), config);
  ASSERT_EQ(result.series.size(), 4u);
  for (const auto& series : result.series) {
    ASSERT_EQ(series.stub_fraction.size(), result.thresholds.size());
    // CCDF over thresholds is non-increasing and within [0,1].
    for (std::size_t i = 0; i < series.stub_fraction.size(); ++i) {
      EXPECT_GE(series.stub_fraction[i], 0.0);
      EXPECT_LE(series.stub_fraction[i], 1.0);
      if (i > 0) {
        EXPECT_LE(series.stub_fraction[i],
                  series.stub_fraction[i - 1] + 1e-9);
      }
    }
  }
  // convert_all is the upper bound of independent_selection, per policy.
  auto find = [&](core::ExportPolicy policy, bool convert) {
    for (const auto& series : result.series)
      if (series.policy == policy && series.convert_all == convert)
        return &series;
    return static_cast<const TrafficControlResult::Series*>(nullptr);
  };
  for (auto policy :
       {core::ExportPolicy::Strict, core::ExportPolicy::Flexible}) {
    const auto* convert = find(policy, true);
    const auto* independent = find(policy, false);
    ASSERT_TRUE(convert && independent);
    EXPECT_GE(convert->median_best_move + 1e-9,
              independent->median_best_move);
  }
  // Flexible policy moves at least as much as strict, per model.
  for (bool convert : {true, false}) {
    const auto* strict = find(core::ExportPolicy::Strict, convert);
    const auto* flexible = find(core::ExportPolicy::Flexible, convert);
    EXPECT_GE(flexible->median_best_move + 1e-9, strict->median_best_move);
  }
  // Most stubs can move a meaningful share via one power node.
  EXPECT_GT(find(core::ExportPolicy::Flexible, true)->stub_fraction[1],
            0.3);  // >= 10% movable
}

TEST(TrafficControl, PrintsFigures) {
  TrafficControlConfig config;
  config.stub_samples = 10;
  std::ostringstream out;
  print(run_traffic_control(tiny_plan(), config), out);
  EXPECT_NE(out.str().find("independent"), std::string::npos);
  EXPECT_NE(out.str().find("power nodes"), std::string::npos);
}

TEST(DatasetReport, PrintsTableAndDistribution) {
  const topo::AsGraph graph = topo::generate(topo::profile("tiny"));
  std::ostringstream out;
  print_dataset_table({{"tiny", &graph}}, 1.0, out);
  print_degree_distribution("tiny", graph, out);
  EXPECT_NE(out.str().find("Peering links"), std::string::npos);
  EXPECT_NE(out.str().find("degree bucket"), std::string::npos);
}

}  // namespace
}  // namespace miro::eval
