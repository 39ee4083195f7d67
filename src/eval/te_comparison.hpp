// Ablation: MIRO vs today's blunt inbound-TE mechanisms.
//
// Section 1.2, footnote 1: more than 4,900 ASes "are announcing smaller
// subnets into BGP to exert control over incoming traffic. However,
// announcing small subnets increases routing-table size without providing
// precise control"; AS-path manipulation "may be easily nullified by other
// ASes' local policy". This experiment quantifies both claims against
// MIRO's power-node negotiation, per multi-homed stub:
//
//   MIRO             — best single power-node negotiation (strict policy,
//                      independent re-selection lower bound); costs tunnel
//                      state at exactly two ASes.
//   deaggregation    — announce one more-specific covering half the address
//                      space via the underused provider only; moves exactly
//                      half of every other link's share, at the cost of one
//                      extra prefix in EVERY AS's routing table.
//   prepend xK       — pad the AS path toward the most-loaded provider with
//                      K extra hops; free, but local preference is compared
//                      before path length, so the effect is erratic.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "eval/experiments.hpp"

namespace miro::eval {

struct TeComparisonResult {
  std::string profile;
  std::size_t stubs = 0;

  struct Mechanism {
    std::string name;
    double median_moved = 0;     ///< median over stubs, fraction of inbound
    double p90_moved = 0;
    double fraction_at_least_10 = 0;  ///< stubs moving >= 10%
    /// Precision: the stub wants to move exactly `target_shift` of its
    /// inbound traffic; this is the median over stubs of the distance
    /// between that target and the closest shift the mechanism's knob menu
    /// can actually produce ("without providing precise control").
    double median_targeting_error = 0;
    /// Extra forwarding/routing state, in table entries, summed over all
    /// ASes that must hold it.
    std::size_t global_state_entries = 0;
    std::string granularity;
  };
  std::vector<Mechanism> mechanisms;
  double target_shift = 0.15;
};

struct TeComparisonConfig {
  std::size_t stub_samples = 100;
};

TeComparisonResult run_te_comparison(const ExperimentPlan& plan,
                                     const TeComparisonConfig& config = {});

void print(const TeComparisonResult& result, std::ostream& out);

}  // namespace miro::eval
