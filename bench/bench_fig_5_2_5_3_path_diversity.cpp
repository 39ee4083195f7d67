// Regenerates Figures 5.2/5.3: the number of available alternate routes per
// (source, destination) pair, sweeping negotiation scope and export policy.
//
// Paper shape to reproduce: only a small fraction of pairs has no alternate
// path even under the strictest policy (~5-13%); "more than half of the AS
// pairs can find at least tens of alternate paths"; the respect-export and
// most-flexible curves nearly coincide; the "path" scope grows much faster
// than "1-hop".
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "eval/path_diversity.hpp"

namespace miro::bench {

void fig_5_2_5_3_path_diversity(Run& run) {
  for (const std::string& profile : run.args().profiles()) {
    const eval::ExperimentPlan& plan = run.plan(profile);
    run.add_memory_rows(profile, plan);
    const Stopwatch clock;
    const auto result = eval::run_path_diversity(plan);
    const double elapsed = clock.ms();
    eval::print(result, std::cout);
    std::cout << "(computed in " << TextTable::num(elapsed, 1) << " ms)\n\n";
    run.add(profile + ".elapsed", elapsed, "ms");
    for (const eval::DiversityRow& row : result.rows) {
      const std::string key = profile + "." + core::to_string(row.scope) +
                              "." + core::to_string(row.policy);
      run.add(key + ".fraction_zero", row.fraction_zero, "fraction");
      run.add(key + ".p50", row.p50, "paths");
    }
  }
}

}  // namespace miro::bench
