// Layer-3 verification cost: how long the symbolic fixpoints take on the
// paper topologies, how much per-node state they hold, and — the gate that
// matters — whether the static plane still bit-matches the simulator.
//
// Rows per profile:
//   <p>.verify.fixpoint_ms    time to solve one symbolic fixpoint per
//                             sampled destination (regression-gated)
//   <p>.verify.state_bytes    capacity-walk bytes of those maps, also fed
//                             into the analysis/symbolic memory account
//                             (byte-row gated)
//   <p>.verify.entry_agree    fraction of tree entries where the planes
//                             agree — must be 1.0
//   <p>.verify.avoid_agree    fraction of avoid tuples where the planes
//                             agree — must be 1.0
#include <iostream>

#include "analysis/symbolic_routes.hpp"
#include "bench_common.hpp"

namespace miro::bench {

void verify_fixpoint(Run& run) {
  for (const std::string& profile : run.args().profiles()) {
    const eval::ExperimentPlan& plan = run.plan(profile);
    const eval::EvalConfig& config = plan.config();
    run.add_memory_rows(profile, plan);
    const analysis::SymbolicRouteEngine engine(plan.graph());

    // Timed region: one fixpoint per sampled destination (the same
    // destinations the simulator plane solved), state bytes accumulated.
    const Stopwatch clock;
    std::uint64_t state_bytes = 0;
    std::size_t sweeps = 0;
    for (const bgp::RoutingTree& tree : plan.trees()) {
      const analysis::SymbolicRouteMap map = engine.solve(tree.destination());
      state_bytes += map.memory_bytes();
      sweeps += map.sweeps();
    }
    const double ms = clock.ms();
    if (obs::MemoryRegistry* mem = obs::memory())
      mem->account("analysis/symbolic").set_current(state_bytes);

    // The correctness gate: the differential oracle on the same config. It
    // solves its own trees from the graph — the independent reference
    // check, so it does not read the plan's.
    analysis::DifferentialOptions diff;
    diff.seed = config.seed;
    diff.destination_samples = config.destination_samples;
    diff.sources_per_destination = config.sources_per_destination;
    const analysis::DifferentialOutcome outcome =
        analysis::differential_check(plan.graph(), diff, profile);

    std::cout << profile << ": " << plan.trees().size() << " fixpoints in "
              << ms << " ms (" << sweeps << " sweeps), " << state_bytes
              << " state bytes; differential: " << outcome.entries
              << " entries, " << outcome.tuples << " avoid tuples, "
              << outcome.entry_mismatches << "+" << outcome.avoid_mismatches
              << " divergences\n";
    if (!outcome.ok()) outcome.report.render_text(std::cerr);

    run.add(profile + ".verify.fixpoint_ms", ms, "ms");
    run.add(profile + ".verify.state_bytes", static_cast<double>(state_bytes),
            "bytes");
    run.add(profile + ".verify.entry_agree", outcome.entry_agree(),
            "fraction");
    run.add(profile + ".verify.avoid_agree", outcome.avoid_agree(),
            "fraction");
  }
}

}  // namespace miro::bench
