// Regenerates Table 5.2: avoid-an-AS success rates.
//
// Paper values to compare shape against:
//   Name         Single  Multi/s  Multi/e  Multi/a  Source
//   Gao 2000     27.8%   65.4%    72.9%    75.3%    89.5%
//   Gao 2003     31.2%   67.0%    74.6%    76.6%    90.4%
//   Gao 2005     29.5%   67.8%    73.7%    76.0%    91.1%
//   Sharad 2004  34.6%   56.7%    62.0%    68.1%    86.3%
// The ordering Single < Multi/s < Multi/e < Multi/a < Source and the rough
// magnitudes are the reproduction target.
#include <iostream>
#include <map>

#include "analysis/symbolic_routes.hpp"
#include "bench_common.hpp"
#include "common/table.hpp"
#include "eval/avoid_as.hpp"

namespace {

// Layer-3 cross-check: the fraction of sampled avoid tuples where the
// symbolic engine's static prediction matches the simulated procedure on
// every observable (success, plain-BGP success, and both negotiation
// footprint counters) under all three export policies. The gate expects
// exactly 1.0 — any disagreement is a bug in one plane or the other.
double static_agreement(const miro::eval::ExperimentPlan& plan) {
  const miro::analysis::SymbolicRouteEngine engine(plan.graph());
  const miro::core::AlternatesEngine alternates(plan.solver());
  std::map<std::size_t, miro::analysis::SymbolicRouteMap> maps;
  std::size_t agree = 0;
  std::size_t total = 0;
  for (const miro::eval::SampledTuple& tuple :
       plan.sample_tuples(plan.config().sources_per_destination)) {
    const auto [it, inserted] = maps.try_emplace(tuple.tree_index);
    if (inserted) it->second = engine.solve(tuple.destination);
    const miro::analysis::SymbolicRouteMap& map = it->second;
    // A tuple whose default path already differs between the planes counts
    // as full disagreement (predict_avoid requires the avoided AS on *its*
    // path, so it cannot be asked).
    if (map.path_of(tuple.source) !=
        plan.tree(tuple.tree_index).path_of(tuple.source)) {
      total += 3;
      continue;
    }
    for (const miro::core::ExportPolicy policy : miro::core::kAllPolicies) {
      const auto simulated = alternates.avoid_as(
          plan.tree(tuple.tree_index), tuple.source, tuple.avoid, policy);
      const auto predicted =
          engine.predict_avoid(map, tuple.source, tuple.avoid, policy);
      ++total;
      if (predicted.success == simulated.success &&
          predicted.bgp_success == simulated.bgp_success &&
          predicted.ases_contacted == simulated.ases_contacted &&
          predicted.paths_received == simulated.paths_received)
        ++agree;
    }
  }
  return total == 0 ? 1.0
                    : static_cast<double>(agree) / static_cast<double>(total);
}

}  // namespace

namespace miro::bench {

void table_5_2_avoid_success(Run& run) {
  for (const std::string& profile : run.args().profiles()) {
    const eval::ExperimentPlan& plan = run.plan(profile);
    run.add_memory_rows(profile, plan);
    const Stopwatch clock;
    const auto result = eval::run_avoid_as(plan);
    const double elapsed = clock.ms();
    eval::print_table_5_2(result, std::cout);
    std::cout << "(computed in " << TextTable::num(elapsed, 1) << " ms)\n\n";
    run.add(profile + ".elapsed", elapsed, "ms");
    run.add(profile + ".single_rate", result.single_rate, "fraction");
    run.add(profile + ".source_rate", result.source_rate, "fraction");
    for (int p = 0; p < 3; ++p) {
      run.add(profile + ".multi_rate." + std::to_string(p),
              result.multi_rate[p], "fraction");
    }
    const double agree = static_agreement(plan);
    std::cout << "static/simulated agreement: " << agree << "\n\n";
    run.add(profile + ".static_agree", agree, "fraction");
  }
}

}  // namespace miro::bench
