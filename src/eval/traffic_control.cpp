#include "eval/traffic_control.hpp"

#include <algorithm>
#include <optional>
#include <ostream>

#include "obs/profile.hpp"

#include "common/parallel.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "topology/metrics.hpp"

namespace miro::eval {
namespace {

/// Alternate ingress links evaluated per power node.
constexpr std::size_t kAlternatesPerPowerNode = 2;

}  // namespace

TrafficControlResult run_traffic_control(const ExperimentPlan& plan,
                                         const TrafficControlConfig& config) {
  obs::ScopedSpan span(obs::profile(), "eval/traffic_control", "eval");
  TrafficControlResult result;
  result.profile = plan.config().profile;
  result.thresholds = {0.05, 0.10, 0.15, 0.25, 0.35, 0.50};

  const AsGraph& graph = plan.graph();
  const StableRouteSolver& solver = plan.solver();

  const std::vector<NodeId> stubs = sample_multi_homed_stubs(
      graph, plan.config().seed ^ 0x7aff1cULL, config.stub_samples);
  result.stubs_evaluated = stubs.size();

  // High-degree cut for the power-node analysis: the top 0.2% by degree
  // (the paper's "more than 200 neighbors" ASes).
  const auto by_degree = topo::nodes_by_degree_descending(graph);
  std::vector<bool> top_degree(graph.node_count(), false);
  const std::size_t top_count =
      std::max<std::size_t>(1, graph.node_count() / 500);
  for (std::size_t i = 0; i < top_count; ++i) top_degree[by_degree[i]] = true;

  struct Key {
    core::ExportPolicy policy;
    bool convert_all;
  };
  const Key keys[] = {{core::ExportPolicy::Strict, true},
                      {core::ExportPolicy::Strict, false},
                      {core::ExportPolicy::Flexible, true},
                      {core::ExportPolicy::Flexible, false}};
  Summary best_move[4];

  std::size_t best_power_top_degree = 0;
  std::size_t best_power_neighbor = 0;
  std::size_t best_power_two_hop = 0;
  std::size_t stubs_with_power = 0;

  // Per-stub solves fan out; the Summary accumulators and the power-node
  // counters are then filled serially in stub order, keeping the output
  // bit-identical at any thread count.
  struct StubControl {
    double best[4] = {0, 0, 0, 0};
    NodeId best_power = topo::kInvalidNode;
    bool empty = false;  ///< no traffic: add zeros, skip power counters
    bool power_top_degree = false;
    bool power_neighbor = false;
    bool power_two_hop = false;
  };
  const auto controls = par::parallel_map(stubs, [&](NodeId stub) {
    StubControl control;
    std::optional<RoutingTree> local;
    const RoutingTree& tree = plan.tree_toward(stub, local);
    const InboundView view = measure_inbound(graph, tree);
    if (view.total == 0) {
      control.empty = true;
      return control;
    }

    double* best = control.best;
    NodeId& best_power_node = control.best_power;

    for (NodeId power : power_nodes(view, config.power_node_candidates)) {
      if (power == stub || !tree.reachable(power)) continue;
      const NodeId old_ingress = tree.ingress_neighbor(power);
      const bgp::RouteClass current_class = tree.route_class(power);
      // Sources the power node controls in the convert_all model: everyone
      // routing through it, plus its own unit of traffic.
      const double convert_share =
          static_cast<double>(view.traverse[power] + 1) /
          static_cast<double>(view.total);

      std::size_t alternates_tried = 0;
      for (const bgp::Route& alt : solver.candidates_at(tree, power)) {
        if (alternates_tried >= kAlternatesPerPowerNode) break;
        const NodeId new_ingress = alt.path[alt.path.size() - 2];
        if (new_ingress == old_ingress) continue;  // same incoming link
        ++alternates_tried;

        // Independent re-selection, shared by both policies: pin the power
        // node to the alternate and let everyone else re-choose.
        const RoutingTree pinned =
            solver.solve_pinned(stub, bgp::PinnedRoute{power, alt.path[1]});
        const InboundView after = measure_inbound(graph, pinned);
        const double delta =
            static_cast<double>(after.ingress[new_ingress]) -
            static_cast<double>(view.ingress[new_ingress]);
        const double independent_share =
            std::max(0.0, delta / static_cast<double>(view.total));

        for (std::size_t k = 0; k < 4; ++k) {
          if (keys[k].policy == core::ExportPolicy::Strict &&
              bgp::rank(alt.route_class) != bgp::rank(current_class))
            continue;  // strict: only same-class alternates
          const double moved =
              keys[k].convert_all ? convert_share : independent_share;
          if (moved > best[k]) {
            best[k] = moved;
            if (k == 0) best_power_node = power;  // strict/convert series
          }
        }
      }
    }

    if (best_power_node != topo::kInvalidNode) {
      control.power_top_degree = top_degree[best_power_node];
      control.power_neighbor = graph.has_edge(stub, best_power_node);
      control.power_two_hop = tree.path_length(best_power_node) == 2;
    }
    return control;
  });

  for (const StubControl& control : controls) {
    if (control.empty) {
      for (auto& summary : best_move) summary.add(0);
      continue;
    }
    for (std::size_t k = 0; k < 4; ++k) best_move[k].add(control.best[k]);
    if (control.best_power != topo::kInvalidNode) {
      ++stubs_with_power;
      if (control.power_top_degree) ++best_power_top_degree;
      if (control.power_neighbor) ++best_power_neighbor;
      if (control.power_two_hop) ++best_power_two_hop;
    }
  }

  for (std::size_t k = 0; k < 4; ++k) {
    TrafficControlResult::Series series;
    series.policy = keys[k].policy;
    series.convert_all = keys[k].convert_all;
    for (double threshold : result.thresholds)
      series.stub_fraction.push_back(
          best_move[k].empty() ? 0
                               : best_move[k].fraction_at_least(threshold));
    series.median_best_move =
        best_move[k].empty() ? 0 : best_move[k].percentile(50);
    result.series.push_back(std::move(series));
  }
  if (stubs_with_power > 0) {
    const auto denominator = static_cast<double>(stubs_with_power);
    result.power_top_degree_fraction =
        static_cast<double>(best_power_top_degree) / denominator;
    result.power_neighbor_fraction =
        static_cast<double>(best_power_neighbor) / denominator;
    result.power_two_hop_fraction =
        static_cast<double>(best_power_two_hop) / denominator;
  }
  return result;
}

void print(const TrafficControlResult& result, std::ostream& out) {
  out << "Figures 5.6/5.7 — multi-homed stubs with a power node that can "
         "move >= X of inbound traffic [" << result.profile << ", "
      << result.stubs_evaluated << " stubs]\n";
  std::vector<std::string> header{"policy", "model"};
  for (double threshold : result.thresholds)
    header.push_back(">=" + TextTable::percent(threshold, 0));
  header.push_back("median-best");
  TextTable table(header);
  for (const auto& series : result.series) {
    std::vector<std::string> row{core::to_string(series.policy),
                                 series.convert_all ? "convert"
                                                    : "independent"};
    for (double fraction : series.stub_fraction)
      row.push_back(TextTable::percent(fraction, 0));
    row.push_back(TextTable::percent(series.median_best_move, 1));
    table.add_row(std::move(row));
  }
  table.print(out);
  out << "power nodes: " << TextTable::percent(result.power_top_degree_fraction)
      << " top-degree, " << TextTable::percent(result.power_neighbor_fraction)
      << " immediate neighbors of the stub, "
      << TextTable::percent(result.power_two_hop_fraction)
      << " exactly two hops away\n";
}

}  // namespace miro::eval
