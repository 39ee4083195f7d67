// Synthetic Internet-like AS topology generation.
//
// The dissertation evaluates on RouteViews-derived topologies (Table 5.1).
// Public BGP snapshots are not available offline, so this generator produces
// the closest synthetic equivalent: a tiered hierarchy (tier-1 clique,
// preferentially-attached transit tier, multi-homed stubs) whose two
// load-bearing properties match the measured graphs — heavy-tailed node
// degrees with a small number of very-high-degree cores, and short (~4 hop)
// valley-free paths — plus the Table 5.1 mix of customer-provider, peer, and
// sibling links. Named profiles mirror the paper's four datasets at laptop
// scale. The customer-provider relation is acyclic by construction (providers
// are always earlier-created nodes), which Chapter 7's convergence results
// require.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/rng.hpp"
#include "topology/as_graph.hpp"

namespace miro::topo {

/// Tuning knobs for the generator. Defaults give a mid-2000s-like graph.
struct GeneratorParams {
  std::size_t node_count = 4000;
  std::size_t tier1_count = 10;
  /// Fraction of non-tier-1 nodes that provide transit (have customers).
  double transit_fraction = 0.17;
  /// Probability a stub is multi-homed (paper: ~60% of ASes).
  double multi_home_probability = 0.60;
  /// Extra peer links as a fraction of total links (Table 5.1: ~6-9%).
  double peer_link_fraction = 0.085;
  /// Sibling links as a fraction of total links (Table 5.1: ~0.5-1.5%).
  double sibling_link_fraction = 0.015;
  /// Preferential-attachment strength; higher = heavier tail.
  double attachment_bias = 1.0;
  std::uint64_t seed = 20060911;  // SIGCOMM'06 vintage
};

/// Generates a topology. Deterministic for fixed params.
AsGraph generate(const GeneratorParams& params);

/// Named profiles modeled on the paper's datasets, scaled to laptop size:
///   "gao2000", "gao2003", "gao2005", "agarwal2004",
/// plus "internet2006" (measured-Internet scale: ~70k ASes / ~140k links at
/// scale 1.0) and "tiny" (a few hundred nodes) for unit tests.
/// `scale` > 0 multiplies node counts: < 1 shrinks for quick runs, > 1
/// grows beyond the profile's nominal size. A scale that is not finite and
/// positive, or that overflows a 32-bit node id, throws.
GeneratorParams profile(std::string_view name, double scale = 1.0);

}  // namespace miro::topo
