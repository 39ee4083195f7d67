// Regenerates Figures 5.6/5.7: multi-homed stubs controlling inbound
// traffic through a single "power node" negotiation.
//
// Paper shape (Gao 2005): under strict policy and convert_all ~83% of stubs
// can move >= 10% of inbound traffic and about half can move >= 25%;
// flexible/convert_all reaches 98% at the 10% threshold; the
// independent_selection lower bound still moves >= 10% for ~64% (strict) to
// ~77% (flexible) of stubs. Over 90% of power nodes are top-degree ASes,
// only ~9% are immediate neighbors of the stub, ~68% sit two hops away.
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "eval/traffic_control.hpp"

namespace miro::bench {

void fig_5_6_5_7_traffic_control(Run& run) {
  for (const std::string& profile : run.args().profiles()) {
    const eval::ExperimentPlan& plan = run.plan(profile);
    run.add_memory_rows(profile, plan);
    eval::TrafficControlConfig config;
    config.stub_samples = 120;
    const Stopwatch clock;
    const auto result = eval::run_traffic_control(plan, config);
    const double elapsed = clock.ms();
    eval::print(result, std::cout);
    std::cout << "(computed in " << TextTable::num(elapsed, 1) << " ms)\n\n";
    run.add(profile + ".elapsed", elapsed, "ms");
    run.add(profile + ".stubs_evaluated",
            static_cast<double>(result.stubs_evaluated), "count");
    for (const auto& series : result.series) {
      const std::string key =
          profile + "." + core::to_string(series.policy) +
          (series.convert_all ? ".convert_all" : ".independent");
      run.add(key + ".median_best_move", series.median_best_move, "fraction");
    }
  }
}

}  // namespace miro::bench
