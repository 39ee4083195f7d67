// Convergence ablation (Chapter 7): runs the divergence gadgets under every
// guideline and reports converged / oscillated, plus random-instance sweeps.
//
// Expected: Figure 7.1 oscillates with no guideline and converges under
// strict-only, B, C, D, and E; Figure 7.2 oscillates under strict-only (its
// whole point) and converges under B, C, D, and E; random guideline-
// conforming instances always converge, as do the same instances' BGP
// layers under the Section 7.2 relaxed-peering and backup-link policies.
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
    const conv::MiroGadget disagree = conv::make_disagree();
    conv::MiroConvergenceModel sync_model = disagree.build();
    std::cout << "  DISAGREE synchronous: "
              << verdict(sync_model.run_synchronous()) << "\n";
    conv::MiroConvergenceModel seq_model = disagree.build();
    std::cout << "  DISAGREE round-robin: "
              << verdict(seq_model.run_round_robin()) << "\n";
    const conv::MiroGadget bad = conv::make_bad_gadget();
    conv::MiroConvergenceModel bad_model = bad.build();
    std::cout << "  BAD GADGET round-robin: "
              << verdict(bad_model.run_round_robin()) << "\n";
  }

  // Random instances: every seed's graph, prefixes and tunnel wishes run
  // under each tunnel guideline, and its BGP layer (no tunnels) under the
  // Section 7.2 policies with 8 random backup links. All must converge.
  std::cout << "\nRandom guideline-conforming instances (72 ASes, 12 tunnel "
               "wishes each):\n";
  const Guideline random_guidelines[] = {Guideline::B, Guideline::C,
                                         Guideline::D, Guideline::E};
  std::size_t converged[4] = {};
  std::size_t relaxed_converged = 0;
  std::size_t backup_converged = 0;
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
    std::vector<conv::TunnelSpec> tunnels;
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
      tunnels.push_back(spec);
    }
    for (std::size_t g = 0; g < std::size(random_guidelines); ++g) {
      conv::ModelOptions options;
      options.guideline = random_guidelines[g];
      options.tunnels = tunnels;
      if (options.guideline == Guideline::D) {
        options.partial_order = [](topo::NodeId, topo::NodeId fd,
                                   topo::NodeId dest) { return fd < dest; };
      }
      conv::MiroConvergenceModel model(graph, destinations, options);
      if (model.run_round_robin(512).converged) ++converged[g];
    }
    conv::MiroConvergenceModel relaxed(
        graph, destinations, conv::relaxed_peering_options(graph));
    if (relaxed.run_round_robin(512).converged) ++relaxed_converged;
    const conv::BackupLinks backups = conv::random_backup_links(graph, rng, 8);
    conv::MiroConvergenceModel backup(
        graph, destinations, conv::backup_link_options(graph, backups));
    if (backup.run_round_robin(512).converged) ++backup_converged;
  }
  auto report = [&](const std::string& label, const std::string& row,
                    std::size_t count) {
    std::printf("  %-21s %zu/%zu converged\n", label.c_str(), count, trials);
    run.add("random." + row + ".converged", static_cast<double>(count),
            "count");
  };
  for (std::size_t g = 0; g < std::size(random_guidelines); ++g) {
    const std::string name = conv::to_string(random_guidelines[g]);
    report("guideline " + name, name, converged[g]);
  }
  report("relaxed peering (7.2)", "relaxed-peering", relaxed_converged);
  report("backup links (7.2)", "backup-links", backup_converged);
  run.add("convergence_lab.elapsed", clock.ms(), "ms");
}

}  // namespace miro::bench
