#include <gtest/gtest.h>

#include <sstream>

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
