// Convergence ablation (Chapter 7): runs the divergence gadgets under every
// guideline and reports converged / oscillated, plus random-instance sweeps.
//
// Expected: Figure 7.1 oscillates with no guideline and converges under
// strict-only, B, C, D, and E; Figure 7.2 oscillates under strict-only (its
// whole point) and converges under B, C, D, and E; random guideline-
// conforming instances always converge.
#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "convergence/gadgets.hpp"
#include "topology/generator.hpp"

namespace miro::bench {
namespace {

using conv::Guideline;

const char* verdict(const conv::MiroConvergenceModel::RunResult& result) {
  if (result.converged) return "converged";
  if (result.cycle_detected) return "OSCILLATES (state cycle proven)";
  return "no fixpoint within budget";
}

}  // namespace

void convergence_lab(Run& run) {
  const Stopwatch clock;
  TextTable table({"gadget", "guideline", "outcome", "activations"});
  const Guideline guidelines[] = {Guideline::None, Guideline::StrictOnly,
                                  Guideline::B, Guideline::C, Guideline::D,
                                  Guideline::E};
  for (Guideline guideline : guidelines) {
    {
      const conv::MiroGadget gadget = conv::make_figure_7_1(guideline);
      conv::MiroConvergenceModel model = gadget.build();
      const auto result = model.run_round_robin();
      table.add_row({"figure-7.1", conv::to_string(guideline),
                     verdict(result), std::to_string(result.activations)});
      run.add(std::string("figure-7.1.") + conv::to_string(guideline) +
                  ".converged",
              result.converged ? 1 : 0, "bool");
    }
    {
      const conv::MiroGadget gadget = conv::make_figure_7_2(guideline);
      conv::MiroConvergenceModel model = gadget.build();
      const auto result = model.run_round_robin();
      table.add_row({"figure-7.2", conv::to_string(guideline),
                     verdict(result), std::to_string(result.activations)});
      run.add(std::string("figure-7.2.") + conv::to_string(guideline) +
                  ".converged",
              result.converged ? 1 : 0, "bool");
    }
  }
  std::cout << "Chapter 7 convergence lab — gadgets under each guideline\n";
  table.print(std::cout);

  // Plain-BGP gadgets for reference.
  {
    std::cout << "\nPlain BGP gadgets (Griffin et al.):\n";
    const auto disagree = conv::make_disagree();
    bgp::PathVectorEngine sync_engine(disagree.graph, disagree.destination,
                                      disagree.hooks);
    int changes = 0;
    for (int i = 0; i < 50; ++i)
      if (sync_engine.step_synchronous()) ++changes;
    std::cout << "  DISAGREE synchronous: " << changes
              << "/50 steps changed state (oscillation)\n";
    bgp::PathVectorEngine seq_engine(disagree.graph, disagree.destination,
                                     disagree.hooks);
    std::cout << "  DISAGREE sequential: "
              << (seq_engine.run_to_stable().has_value() ? "converged"
                                                          : "diverged")
              << "\n";
    const auto bad = conv::make_bad_gadget();
    bgp::PathVectorEngine bad_engine(bad.graph, bad.destination, bad.hooks);
    std::cout << "  BAD GADGET: "
              << (bad_engine.run_to_stable(300).has_value()
                      ? "converged (unexpected!)"
                      : "no stable state (as proven)")
              << "\n";
  }

  // Random conforming instances: all must converge.
  std::cout << "\nRandom guideline-conforming instances (72 ASes, 12 tunnel "
               "wishes each):\n";
  for (Guideline guideline : {Guideline::B, Guideline::C, Guideline::D,
                              Guideline::E}) {
    std::size_t converged = 0;
    const std::size_t trials = 20;
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      topo::GeneratorParams params = topo::profile("tiny");
      params.node_count = 72;
      params.seed = seed;
      const topo::AsGraph graph = topo::generate(params);
      Rng rng(seed * 31 + 7);
      std::vector<topo::NodeId> destinations;
      for (int i = 0; i < 4; ++i)
        destinations.push_back(
            static_cast<topo::NodeId>(rng.next_below(graph.node_count())));
      std::sort(destinations.begin(), destinations.end());
      destinations.erase(
          std::unique(destinations.begin(), destinations.end()),
          destinations.end());
      conv::ModelOptions options;
      options.guideline = guideline;
      for (int i = 0; i < 12; ++i) {
        conv::TunnelSpec spec;
        spec.requester =
            static_cast<topo::NodeId>(rng.next_below(graph.node_count()));
        spec.responder =
            static_cast<topo::NodeId>(rng.next_below(graph.node_count()));
        spec.destination = destinations[rng.next_below(destinations.size())];
        if (spec.requester == spec.responder ||
            spec.responder == spec.destination)
          continue;
        options.tunnels.push_back(spec);
      }
      if (guideline == Guideline::D) {
        options.partial_order = [](topo::NodeId, topo::NodeId fd,
                                   topo::NodeId dest) { return fd < dest; };
      }
      conv::MiroConvergenceModel model(graph, destinations, options);
      if (model.run_round_robin(512).converged) ++converged;
    }
    std::printf("  guideline %-11s %zu/%zu converged\n",
                conv::to_string(guideline), converged, trials);
    run.add(std::string("random.") + conv::to_string(guideline) +
                ".converged",
            static_cast<double>(converged), "count");
  }
  run.add("convergence_lab.elapsed", clock.ms(), "ms");
}

}  // namespace miro::bench
