// Regenerates Figures 5.4/5.5: incremental deployment.
//
// Paper shape: with only the 0.2% most-connected ASes running MIRO the
// system already achieves ~40-50% of the full-deployment gain; the top 1%
// yields ~50-75%; deploying at the low-degree edge first achieves almost
// nothing until nearly everyone has converted.
#include <iostream>

#include "bench_common.hpp"
#include "eval/avoid_as.hpp"

namespace miro::bench {

void fig_5_4_5_5_incremental(Run& run) {
  for (const std::string& profile : run.args().profiles()) {
    const eval::ExperimentPlan& plan = run.plan(profile);
    run.add_memory_rows(profile, plan);
    const Stopwatch clock;
    const auto result = eval::run_incremental_deployment(plan);
    const double elapsed = clock.ms();
    eval::print(result, std::cout);
    std::cout << "\n";
    run.add(profile + ".elapsed", elapsed, "ms");
    if (!result.points.empty()) {
      const auto& half = result.points[result.points.size() / 2];
      run.add(profile + ".mid_gain.flexible", half.relative_gain[2],
              "fraction");
      run.add(profile + ".mid_gain.low_degree_first",
              half.low_degree_first_gain, "fraction");
    }
  }
}

}  // namespace miro::bench
