// Experiment: controlling incoming traffic (Section 5.4, Figures 5.6/5.7).
//
// A multi-homed stub AS wants to shift inbound load between its provider
// links. It finds a "power node" — an AS that many sources' default paths
// traverse — and negotiates with it to switch to an alternate route that
// enters the stub over a different incoming link. Traffic is the paper's
// uniform unit-per-source model. Two bounds are measured:
//   convert_all          — every source whose path traverses the power node
//                          follows it to the new link (upper bound);
//   independent_selection— the power node switches and re-advertises, and
//                          every other AS independently re-selects
//                          (lower bound; computed with a pinned re-solve).
// Both are swept under the strict and the most-flexible export policies.
#pragma once

#include <iosfwd>
#include <vector>

#include "core/export_policy.hpp"
#include "eval/experiments.hpp"

namespace miro::eval {

struct TrafficControlConfig {
  std::size_t stub_samples = 120;
  std::size_t power_node_candidates = 6;
};

struct TrafficControlResult {
  std::string profile;
  std::size_t stubs_evaluated = 0;

  /// Movable-traffic thresholds reported (fractions of total inbound).
  std::vector<double> thresholds;
  struct Series {
    core::ExportPolicy policy;
    bool convert_all = false;  ///< vs independent_selection
    /// fraction of stubs whose best single power node moves >= threshold[i].
    std::vector<double> stub_fraction;
    double median_best_move = 0;  ///< median over stubs of max movable share
  };
  std::vector<Series> series;  ///< 2 policies x 2 models

  /// Power-node analysis (Section 5.4's closing paragraph), over the best
  /// power node per stub under strict/convert_all.
  double power_top_degree_fraction = 0;  ///< among the top-degree ASes
  double power_neighbor_fraction = 0;    ///< immediate neighbor of the stub
  double power_two_hop_fraction = 0;     ///< exactly two AS hops away
};

TrafficControlResult run_traffic_control(const ExperimentPlan& plan,
                                         const TrafficControlConfig& config =
                                             {});

void print(const TrafficControlResult& result, std::ostream& out);

}  // namespace miro::eval
