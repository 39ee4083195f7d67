#include "eval/avoid_as.hpp"

#include <ostream>
#include <utility>

#include "obs/profile.hpp"

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "topology/metrics.hpp"

namespace miro::eval {
namespace {

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

AvoidAsResult run_avoid_as(const ExperimentPlan& plan) {
  obs::ScopedSpan span(obs::profile(), "eval/avoid_as", "eval");
  AvoidAsResult result;
  result.profile = plan.config().profile;
  const core::AlternatesEngine engine(plan.solver());
  const auto& tuples =
      plan.sample_tuples(plan.config().sources_per_destination);
  result.tuples = tuples.size();
  // Source-routing reachability: the plan's one DFS index answers every
  // (source, destination, avoid) tuple. It is built here on the plan's
  // first avoid-AS run and shared read-only by every worker chunk (and by
  // any later experiment on the plan).
  plan.precompute_avoidance(tuples);

  // Per-tuple evaluations are independent; each chunk keeps its own
  // counters, merged after the join. Every merged quantity is a sum of
  // per-tuple integers, so the totals are identical at any thread count.
  struct Accum {
    std::size_t single_ok = 0;
    std::size_t source_ok = 0;
    std::size_t multi_ok[3] = {0, 0, 0};

    // Table 5.3 accumulators over single-path-failing tuples.
    std::size_t hard_tuples = 0;
    std::size_t hard_ok[3] = {0, 0, 0};
    std::size_t hard_contacted[3] = {0, 0, 0};
    std::size_t hard_paths[3] = {0, 0, 0};
  };

  std::vector<Accum> accums(par::chunk_count(tuples.size()));
  par::parallel_for(
      tuples.size(),
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        Accum& acc = accums[chunk];
        for (std::size_t i = begin; i != end; ++i) {
          const SampledTuple& tuple = tuples[i];
          const RoutingTree& tree = plan.tree(tuple.tree_index);

          bool single = false;
          bool policy_ok[3] = {false, false, false};
          std::size_t contacted[3] = {0, 0, 0};
          std::size_t paths[3] = {0, 0, 0};
          for (std::size_t p = 0; p < 3; ++p) {
            const auto outcome = engine.avoid_as(tree, tuple.source,
                                                 tuple.avoid,
                                                 core::kAllPolicies[p]);
            policy_ok[p] = outcome.success;
            contacted[p] = outcome.ases_contacted;
            paths[p] = outcome.paths_received;
            if (outcome.bgp_success) single = true;
          }
          if (single) ++acc.single_ok;
          for (std::size_t p = 0; p < 3; ++p)
            if (policy_ok[p]) ++acc.multi_ok[p];

          if (plan.avoid_reachable(tuple.destination,
                                   tuple.avoid)[tuple.source])
            ++acc.source_ok;

          if (!single) {
            ++acc.hard_tuples;
            for (std::size_t p = 0; p < 3; ++p) {
              if (policy_ok[p]) ++acc.hard_ok[p];
              acc.hard_contacted[p] += contacted[p];
              acc.hard_paths[p] += paths[p];
            }
          }
        }
      });

  std::size_t single_ok = 0;
  std::size_t source_ok = 0;
  std::size_t multi_ok[3] = {0, 0, 0};
  std::size_t hard_tuples = 0;
  std::size_t hard_ok[3] = {0, 0, 0};
  std::size_t hard_contacted[3] = {0, 0, 0};
  std::size_t hard_paths[3] = {0, 0, 0};
  for (const Accum& acc : accums) {
    single_ok += acc.single_ok;
    source_ok += acc.source_ok;
    hard_tuples += acc.hard_tuples;
    for (std::size_t p = 0; p < 3; ++p) {
      multi_ok[p] += acc.multi_ok[p];
      hard_ok[p] += acc.hard_ok[p];
      hard_contacted[p] += acc.hard_contacted[p];
      hard_paths[p] += acc.hard_paths[p];
    }
  }

  result.single_rate = ratio(single_ok, result.tuples);
  result.source_rate = ratio(source_ok, result.tuples);
  for (std::size_t p = 0; p < 3; ++p) {
    result.multi_rate[p] = ratio(multi_ok[p], result.tuples);
    AvoidAsResult::StateRow row;
    row.policy = core::kAllPolicies[p];
    row.tuples = hard_tuples;
    row.success_rate = ratio(hard_ok[p], hard_tuples);
    row.avg_ases_contacted =
        hard_tuples == 0 ? 0
                         : static_cast<double>(hard_contacted[p]) /
                               static_cast<double>(hard_tuples);
    row.avg_paths_received =
        hard_tuples == 0 ? 0
                         : static_cast<double>(hard_paths[p]) /
                               static_cast<double>(hard_tuples);
    result.state_rows.push_back(row);
  }
  return result;
}

void print_table_5_2(const AvoidAsResult& result, std::ostream& out) {
  out << "Table 5.2 — avoid-an-AS success rate by routing policy\n";
  TextTable table({"Name", "Single", "Multi/s", "Multi/e", "Multi/a",
                   "Source"});
  table.add_row({result.profile, TextTable::percent(result.single_rate),
                 TextTable::percent(result.multi_rate[0]),
                 TextTable::percent(result.multi_rate[1]),
                 TextTable::percent(result.multi_rate[2]),
                 TextTable::percent(result.source_rate)});
  table.print(out);
  out << "(" << result.tuples << " sampled (source, destination, avoid) "
      << "tuples)\n";
}

void print_table_5_3(const AvoidAsResult& result, std::ostream& out) {
  out << "Table 5.3 — negotiation state per tuple (single-path failures "
         "only) [" << result.profile << "]\n";
  TextTable table({"Policy", "Success Rate", "AS#/tuple", "Path#/tuple"});
  for (const auto& row : result.state_rows) {
    table.add_row({std::string(core::to_string(row.policy)) +
                       core::suffix(row.policy),
                   TextTable::percent(row.success_rate),
                   TextTable::num(row.avg_ases_contacted),
                   TextTable::num(row.avg_paths_received, 1)});
  }
  table.print(out);
}

DeploymentResult run_incremental_deployment(const ExperimentPlan& plan) {
  obs::ScopedSpan span(obs::profile(), "eval/incremental_deployment", "eval");
  DeploymentResult result;
  result.profile = plan.config().profile;
  const core::AlternatesEngine engine(plan.solver());
  const auto& all_tuples =
      plan.sample_tuples(plan.config().sources_per_destination);
  const auto by_degree = topo::nodes_by_degree_descending(plan.graph());
  const std::size_t n = plan.graph().node_count();

  // Deployment only matters where plain BGP fails; restrict to those tuples
  // and use ubiquitous flexible-policy deployment as the gain baseline.
  // Chunks filter independently and are concatenated in chunk order, which
  // preserves the serial tuple order exactly.
  struct FilterAccum {
    std::vector<SampledTuple> tuples;
    std::size_t base_ok = 0;
  };
  std::vector<FilterAccum> filtered(par::chunk_count(all_tuples.size()));
  par::parallel_for(
      all_tuples.size(),
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        FilterAccum& acc = filtered[chunk];
        for (std::size_t i = begin; i != end; ++i) {
          const SampledTuple& tuple = all_tuples[i];
          const auto outcome =
              engine.avoid_as(plan.tree(tuple.tree_index), tuple.source,
                              tuple.avoid, core::ExportPolicy::Flexible);
          if (outcome.bgp_success) continue;
          acc.tuples.push_back(tuple);
          if (outcome.success) ++acc.base_ok;
        }
      });
  std::vector<SampledTuple> tuples;
  std::size_t base_ok = 0;
  for (FilterAccum& acc : filtered) {
    tuples.insert(tuples.end(), acc.tuples.begin(), acc.tuples.end());
    base_ok += acc.base_ok;
  }
  if (base_ok == 0) return result;  // degenerate sample; nothing to plot

  const double fractions[] = {0.001, 0.002, 0.005, 0.01, 0.02,
                              0.05,  0.1,   0.2,   0.5,  1.0};
  for (double fraction : fractions) {
    const auto count = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(n) * fraction));
    std::vector<bool> top_deployed(n, false);
    std::vector<bool> bottom_deployed(n, false);
    for (std::size_t i = 0; i < count && i < n; ++i) {
      top_deployed[by_degree[i]] = true;
      bottom_deployed[by_degree[n - 1 - i]] = true;
    }

    // One fused pass per fraction: each chunk evaluates its tuples under
    // all three policies plus the low-degree control, keeping four success
    // counters that merge as order-independent sums.
    struct GainAccum {
      std::size_t ok[3] = {0, 0, 0};
      std::size_t low_ok = 0;
    };
    std::vector<GainAccum> gains(par::chunk_count(tuples.size()));
    par::parallel_for(
        tuples.size(),
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          GainAccum& acc = gains[chunk];
          for (std::size_t i = begin; i != end; ++i) {
            const SampledTuple& tuple = tuples[i];
            const RoutingTree& tree = plan.tree(tuple.tree_index);
            for (std::size_t p = 0; p < 3; ++p) {
              if (engine
                      .avoid_as(tree, tuple.source, tuple.avoid,
                                core::kAllPolicies[p], &top_deployed)
                      .success)
                ++acc.ok[p];
            }
            if (engine
                    .avoid_as(tree, tuple.source, tuple.avoid,
                              core::ExportPolicy::Flexible, &bottom_deployed)
                    .success)
              ++acc.low_ok;
          }
        });

    DeploymentPoint point;
    point.fraction = static_cast<double>(count) / static_cast<double>(n);
    std::size_t ok[3] = {0, 0, 0};
    std::size_t low_ok = 0;
    for (const GainAccum& acc : gains) {
      for (std::size_t p = 0; p < 3; ++p) ok[p] += acc.ok[p];
      low_ok += acc.low_ok;
    }
    for (std::size_t p = 0; p < 3; ++p)
      point.relative_gain[p] = ratio(ok[p], base_ok);
    point.low_degree_first_gain = ratio(low_ok, base_ok);
    result.points.push_back(point);
  }
  return result;
}

void print(const DeploymentResult& result, std::ostream& out) {
  out << "Figures 5.4/5.5 — incremental deployment: fraction of "
         "full-deployment (/a) gain [" << result.profile << "]\n";
  TextTable table({"deployed%", "top-degree /s", "top-degree /e",
                   "top-degree /a", "low-degree-first /a"});
  for (const DeploymentPoint& point : result.points) {
    table.add_row({TextTable::percent(point.fraction, 1),
                   TextTable::percent(point.relative_gain[0]),
                   TextTable::percent(point.relative_gain[1]),
                   TextTable::percent(point.relative_gain[2]),
                   TextTable::percent(point.low_degree_first_gain)});
  }
  table.print(out);
}

}  // namespace miro::eval
