// Ablation bench: how much each negotiation capability contributes to the
// avoid-an-AS success rate (the DESIGN.md negotiation-scope ablation).
//
// Sweeps: plain BGP -> 1-hop negotiation only -> on-path negotiation
// (the paper's procedure) -> on-path + one level of multi-hop relay
// (Section 3.3's "AS B may ask AS C"). Expected shape: each step helps;
// multi-hop adds a real but modest tail because "most paths in today's
// Internet are short".
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "core/alternates.hpp"
#include "eval/experiments.hpp"

namespace miro::bench {

void ablation_negotiation_scope(Run& run) {
  for (const std::string& profile : run.args().profiles()) {
    const eval::ExperimentPlan& plan = run.plan(profile);
    run.add_memory_rows(profile, plan);
    const Stopwatch clock;
    const core::AlternatesEngine engine(plan.solver());
    const auto& tuples =
        plan.sample_tuples(plan.config().sources_per_destination);

    TextTable table({"policy", "BGP only", "1-hop", "on-path",
                     "on-path + multihop"});
    for (core::ExportPolicy policy : core::kAllPolicies) {
      std::size_t bgp_ok = 0, onehop_ok = 0, onpath_ok = 0, multi_ok = 0;
      for (const eval::SampledTuple& tuple : tuples) {
        const auto& tree = plan.tree(tuple.tree_index);
        const auto result =
            engine.avoid_as(tree, tuple.source, tuple.avoid, policy);
        if (result.bgp_success) ++bgp_ok;
        if (result.success) ++onpath_ok;
        // 1-hop: does any immediate-neighbor negotiation expose a clean
        // path?
        bool onehop = result.bgp_success;
        if (!onehop) {
          for (const core::SplicedPath& path : engine.collect(
                   tree, tuple.source, core::NegotiationScope::OneHop,
                   policy)) {
            if (!path.traverses(tuple.avoid)) {
              onehop = true;
              break;
            }
          }
        }
        if (onehop) ++onehop_ok;
        if (engine
                .avoid_as_multihop(tree, tuple.source, tuple.avoid, policy)
                .success)
          ++multi_ok;
      }
      const double n = static_cast<double>(tuples.size());
      table.add_row({std::string(core::to_string(policy)) +
                         core::suffix(policy),
                     TextTable::percent(bgp_ok / n),
                     TextTable::percent(onehop_ok / n),
                     TextTable::percent(onpath_ok / n),
                     TextTable::percent(multi_ok / n)});
      const std::string key =
          profile + "." + core::to_string(policy);
      run.add(key + ".bgp", bgp_ok / n, "fraction");
      run.add(key + ".onehop", onehop_ok / n, "fraction");
      run.add(key + ".onpath", onpath_ok / n, "fraction");
      run.add(key + ".multihop", multi_ok / n, "fraction");
    }
    run.add(profile + ".elapsed", clock.ms(), "ms");
    std::cout << "Negotiation-scope ablation [" << profile << ", "
              << tuples.size() << " tuples]\n";
    table.print(std::cout);
    std::cout << "\n";
  }
}

}  // namespace miro::bench
