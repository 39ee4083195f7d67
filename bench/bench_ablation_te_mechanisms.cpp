// Ablation bench: MIRO tunnels vs prefix deaggregation vs AS-path
// prepending for inbound traffic engineering (the Section 1.2 footnote).
//
// Expected shape: deaggregation moves a large, coarse chunk but costs one
// routing-table entry in EVERY AS; prepending is free but moves little
// (local preference is compared before AS-path length, so only same-class
// ties budge) and barely improves with depth; MIRO moves a meaningful,
// finely-negotiated share with state at just two ASes.
#include <iostream>

#include "bench_common.hpp"
#include "eval/te_comparison.hpp"

namespace miro::bench {

void ablation_te_mechanisms(Run& run) {
  for (const std::string& profile : run.args().profiles()) {
    const eval::ExperimentPlan& plan = run.plan(profile);
    run.add_memory_rows(profile, plan);
    const Stopwatch clock;
    const auto result = eval::run_te_comparison(plan);
    const double elapsed = clock.ms();
    eval::print(result, std::cout);
    std::cout << "\n";
    run.add(profile + ".elapsed", elapsed, "ms");
    for (const auto& mechanism : result.mechanisms) {
      run.add(profile + "." + mechanism.name + ".median_moved",
              mechanism.median_moved, "fraction");
    }
  }
}

}  // namespace miro::bench
