// AS business-relationship inference from observed AS paths.
//
// The dissertation's methodology (Section 5.1) annotates the measured
// topology with relationships inferred by Gao's degree-based algorithm and by
// the Subramanian/Agarwal multi-vantage rank algorithm. Both are implemented
// here over a set of observed AS paths (what BGP table dumps provide). On
// synthetic topologies the inferred graph can be scored against the planted
// ground truth — a validation the paper could not perform on real data.
#pragma once

#include <cstddef>
#include <vector>

#include "topology/as_graph.hpp"

namespace miro::topo {

/// One observed AS path, origin last (as read right-to-left in a BGP table).
using AsPath = std::vector<AsNumber>;

/// Gao's algorithm (IEEE/ACM ToN 2001): (1) degrees from the paths, (2)
/// transit evidence counted on each side of each path's highest-degree "top
/// provider", (3) provider/customer/sibling assignment from the evidence, (4)
/// peer identification among top-adjacent links with comparable degrees.
AsGraph infer_gao(const std::vector<AsPath>& paths);

/// Rank-based inference (Subramanian et al. / "Agarwal"): each AS is ranked
/// by how many ASes it is observed to carry traffic toward across all vantage
/// points; edges between similarly ranked ASes become peers, otherwise the
/// higher rank is the provider. (Siblings are not inferred, matching the
/// original algorithm.)
AsGraph infer_rank(const std::vector<AsPath>& paths);

/// Per-relationship confusion counts of an inferred graph vs ground truth.
struct InferenceAccuracy {
  std::size_t edges_in_truth = 0;
  std::size_t edges_in_inferred = 0;
  std::size_t edges_missing = 0;     ///< in truth, never observed
  std::size_t edges_spurious = 0;    ///< inferred but not in truth
  std::size_t classified_correct = 0;
  std::size_t classified_wrong = 0;

  double accuracy() const {
    const std::size_t total = classified_correct + classified_wrong;
    return total == 0 ? 0.0
                      : static_cast<double>(classified_correct) /
                            static_cast<double>(total);
  }
};

InferenceAccuracy compare_inference(const AsGraph& truth,
                                    const AsGraph& inferred);

}  // namespace miro::topo
