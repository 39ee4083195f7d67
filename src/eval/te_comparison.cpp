#include "eval/te_comparison.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <ostream>

#include "obs/profile.hpp"

#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace miro::eval {
namespace {

constexpr std::size_t kPowerNodeCandidates = 6;
constexpr std::array<std::uint32_t, 3> kPrependDepths{1, 2, 3};
/// The inbound fraction the stub wants to shift (precision target).
constexpr double kTargetShift = 0.15;

}  // namespace

TeComparisonResult run_te_comparison(const ExperimentPlan& plan,
                                     const TeComparisonConfig& config) {
  obs::ScopedSpan span(obs::profile(), "eval/te_comparison", "eval");
  TeComparisonResult result;
  result.profile = plan.config().profile;
  const topo::AsGraph& graph = plan.graph();
  const StableRouteSolver& solver = plan.solver();

  const std::vector<NodeId> stubs = sample_multi_homed_stubs(
      graph, plan.config().seed ^ 0xdeacc, config.stub_samples);
  result.stubs = stubs.size();

  Summary miro_moved;
  Summary deagg_moved;
  std::vector<Summary> prepend_moved(kPrependDepths.size());
  Summary miro_error, deagg_error, prepend_error;
  // Distance from the target to the closest shift the mechanism's knob menu
  // offers (doing nothing is always on the menu).
  auto targeting_error = [](const std::vector<double>& menu) {
    double error = kTargetShift;  // the "do nothing" option
    for (double option : menu)
      error = std::min(error, std::abs(option - kTargetShift));
    return error;
  };

  // Every stub's solve-and-measure is independent; fan out, then fill the
  // Summary accumulators serially in stub order so the percentiles see the
  // serial value sequence at any thread count.
  struct StubOutcome {
    bool degenerate = false;
    double miro_moved = 0;
    double miro_error = 0;
    double deagg_moved = 0;
    double deagg_error = 0;
    std::vector<double> prepend_moved;
    double prepend_error = 0;
  };
  const auto outcomes = par::parallel_map(stubs, [&](NodeId stub) {
    StubOutcome outcome;
    std::optional<RoutingTree> local;
    const RoutingTree& tree = plan.tree_toward(stub, local);
    const InboundView before = measure_inbound(graph, tree);
    const std::size_t total = before.total;
    if (total == 0 || before.ingress_links() < 2) {
      outcome.degenerate = true;
      return outcome;
    }
    // The loaded link we want to unload (ties to the lowest node id) and
    // its share.
    const auto loaded_link = static_cast<NodeId>(
        std::max_element(before.ingress.begin(), before.ingress.end()) -
        before.ingress.begin());
    const auto loaded_count =
        static_cast<double>(before.ingress[loaded_link]);
    const double loaded_share = loaded_count / static_cast<double>(total);

    // --- MIRO: best power node, strict policy, independent model. ---
    {
      std::vector<double> menu;  // every shift some negotiation can produce
      for (NodeId power : power_nodes(before, kPowerNodeCandidates)) {
        const NodeId old_ingress = tree.ingress_neighbor(power);
        std::size_t tried = 0;
        for (const bgp::Route& alt : solver.candidates_at(tree, power)) {
          if (tried >= 2) break;
          if (bgp::rank(alt.route_class) !=
              bgp::rank(tree.route_class(power)))
            continue;  // strict policy
          const NodeId new_ingress = alt.path[alt.path.size() - 2];
          if (new_ingress == old_ingress) continue;
          ++tried;
          const RoutingTree pinned = solver.solve_pinned(
              stub, bgp::PinnedRoute{power, alt.path[1]});
          const double after_count = static_cast<double>(
              measure_inbound(graph, pinned).ingress[new_ingress]);
          const auto before_count =
              static_cast<double>(before.ingress[new_ingress]);
          menu.push_back(std::max(0.0, after_count - before_count) /
                         static_cast<double>(total));
        }
      }
      outcome.miro_moved =
          menu.empty() ? 0 : *std::max_element(menu.begin(), menu.end());
      outcome.miro_error = targeting_error(menu);
    }

    // --- Deaggregation: a /half more-specific via an underused provider.
    // Uniform traffic over the address space: the subprefix carries half of
    // every source's traffic, all of it now entering the chosen link.
    // Announcing the half-space subprefix via a quiet link moves the
    // subprefix half of every source that currently enters elsewhere; with
    // the quiet link chosen opposite the loaded one, the shift onto it is
    // half of the loaded link's share.
    const double deagg_shift = 0.5 * loaded_share;
    outcome.deagg_moved = deagg_shift;
    outcome.deagg_error = targeting_error({deagg_shift});

    // --- Prepending toward the loaded provider: one knob, a few depths. ---
    std::vector<double> prepend_menu;
    for (std::size_t k = 0; k < kPrependDepths.size(); ++k) {
      const RoutingTree padded = solver.solve_prepended(
          stub, bgp::OriginPrepend{loaded_link, kPrependDepths[k]});
      const auto still_there = static_cast<double>(
          measure_inbound(graph, padded).ingress[loaded_link]);
      const double moved = std::max(
          0.0, (loaded_count - still_there) / static_cast<double>(total));
      prepend_menu.push_back(moved);
    }
    outcome.prepend_moved = prepend_menu;
    outcome.prepend_error = targeting_error(prepend_menu);
    return outcome;
  });

  for (const StubOutcome& outcome : outcomes) {
    if (outcome.degenerate) {
      miro_moved.add(0);
      deagg_moved.add(0);
      for (auto& summary : prepend_moved) summary.add(0);
      miro_error.add(kTargetShift);
      deagg_error.add(kTargetShift);
      prepend_error.add(kTargetShift);
      continue;
    }
    miro_moved.add(outcome.miro_moved);
    miro_error.add(outcome.miro_error);
    deagg_moved.add(outcome.deagg_moved);
    deagg_error.add(outcome.deagg_error);
    for (std::size_t k = 0; k < kPrependDepths.size(); ++k)
      prepend_moved[k].add(outcome.prepend_moved[k]);
    prepend_error.add(outcome.prepend_error);
  }

  result.target_shift = kTargetShift;
  auto mechanism = [&](std::string name, const Summary& moved,
                       const Summary& error, std::size_t state,
                       std::string granularity) {
    TeComparisonResult::Mechanism m;
    m.name = std::move(name);
    if (!moved.empty()) {
      m.median_moved = moved.percentile(50);
      m.p90_moved = moved.percentile(90);
      m.fraction_at_least_10 = moved.fraction_at_least(0.10);
    }
    if (!error.empty()) m.median_targeting_error = error.percentile(50);
    m.global_state_entries = state;
    m.granularity = std::move(granularity);
    return m;
  };
  result.mechanisms.push_back(mechanism("miro-tunnel", miro_moved,
                                        miro_error, 2, "per negotiation"));
  result.mechanisms.push_back(mechanism("deaggregate-half", deagg_moved,
                                        deagg_error, graph.node_count(),
                                        "halves of address space"));
  for (std::size_t k = 0; k < kPrependDepths.size(); ++k)
    result.mechanisms.push_back(mechanism(
        "prepend-x" + std::to_string(kPrependDepths[k]),
        prepend_moved[k], prepend_error, 0,
        "whole prefix, policy-dependent"));
  return result;
}

void print(const TeComparisonResult& result, std::ostream& out) {
  out << "Ablation — inbound TE mechanisms for multi-homed stubs ["
      << result.profile << ", " << result.stubs << " stubs]\n";
  TextTable table({"mechanism", "median moved", "p90 moved", ">=10% stubs",
                   "err@target " + TextTable::percent(result.target_shift, 0),
                   "extra state (entries)", "granularity"});
  for (const auto& m : result.mechanisms) {
    table.add_row({m.name, TextTable::percent(m.median_moved),
                   TextTable::percent(m.p90_moved),
                   TextTable::percent(m.fraction_at_least_10),
                   TextTable::percent(m.median_targeting_error),
                   std::to_string(m.global_state_entries), m.granularity});
  }
  table.print(out);
  out << "(deaggregation buys control by putting one more prefix into every "
         "AS's table; prepending is free but local-preference decisions "
         "ignore it; MIRO's state lives only at the two negotiating ASes)\n";
}

}  // namespace miro::eval
