// Regenerates Table 5.3: the state MIRO handles while negotiating —
// success rate, ASes contacted per tuple, candidate paths received per
// tuple, restricted to the tuples plain BGP cannot satisfy.
//
// Paper shape: a stricter policy contacts MORE ASes but receives FEWER
// candidate paths (Gao 2005: strict 2.80 ASes / 36.6 paths vs flexible
// 2.38 ASes / 139.0 paths); later-year topologies yield more paths per
// tuple.
#include <iostream>

#include "bench_common.hpp"
#include "eval/avoid_as.hpp"

namespace miro::bench {

void table_5_3_negotiation_state(Run& run) {
  for (const std::string& profile : run.args().profiles()) {
    const eval::ExperimentPlan& plan = run.plan(profile);
    run.add_memory_rows(profile, plan);
    const Stopwatch clock;
    const auto result = eval::run_avoid_as(plan);
    const double elapsed = clock.ms();
    eval::print_table_5_3(result, std::cout);
    std::cout << "\n";
    run.add(profile + ".elapsed", elapsed, "ms");
    for (const auto& row : result.state_rows) {
      const std::string key = profile + "." + core::to_string(row.policy);
      run.add(key + ".success_rate", row.success_rate, "fraction");
      run.add(key + ".avg_ases_contacted", row.avg_ases_contacted, "count");
    }
  }
}

}  // namespace miro::bench
