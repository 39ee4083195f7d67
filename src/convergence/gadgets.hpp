// Canonical (non-)convergence instances.
//
//   figure_7_1 — ASes A, B, C are customers of D and peer with each other;
//                each wants a tunnel through the next peer to reach D.
//                Without guidelines the tunnels re-create Griffin's BAD
//                GADGET and the system oscillates (Figure 7.1).
//   figure_7_2 — D is a customer of providers A, B, C (a peering triangle);
//                D wants tunnels D(BA), D(CB), D(AC), each cheaper than the
//                direct route. Under the strict policy alone the tunnels
//                invalidate each other cyclically and D oscillates
//                (Figure 7.2); Guidelines D and E break the cycle.
//   disagree / bad_gadget — the classic plain-BGP instances of Griffin et
//                al., expressed as tunnel-free instances with custom
//                `prefers`/`exports` hooks, showing that BGP itself
//                diverges when Guideline A is violated.
//
// The Gao-Rexford guideline family the MIRO proofs build on (Section 7.2):
//   1. no backup links, customer > peer > provider (Guideline A — the
//      model's default policy);
//   2. "constrained peer-to-peer agreements": peer routes may be equally
//      preferred as customer routes (relaxed_peering_options);
//   3. backup links: links that "normally carry no traffic unless there is
//      a link failure", given the lowest local preference and exported
//      liberally so they can restore connectivity (backup_link_options).
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>

#include "convergence/model.hpp"

namespace miro::conv {

/// A ready-to-run MIRO instance; node ids are looked up by the paper's
/// letter names ("A", "B", ...).
struct MiroGadget {
  topo::AsGraph graph;
  std::vector<NodeId> destinations;
  ModelOptions options;
  std::unordered_map<std::string, NodeId> nodes;

  /// Builds a model over this gadget. The model keeps a reference to the
  /// gadget's graph, so the gadget must outlive it — hence lvalue-only.
  MiroConvergenceModel build() const& {
    return MiroConvergenceModel(graph, destinations, options);
  }
  MiroConvergenceModel build() const&& = delete;
};

/// Figure 7.1 instance under the given guideline.
MiroGadget make_figure_7_1(Guideline guideline);

/// Figure 7.2 instance under the given guideline. For Guideline D the
/// partial order is ≺ by ascending node id, which (being a strict total
/// order) cannot admit the cyclic tunnel preferences.
MiroGadget make_figure_7_2(Guideline guideline);

/// DISAGREE: two nodes each preferring the path through the other; has two
/// stable states but oscillates under the synchronous schedule. Node "0" is
/// the destination hub, "1" and "2" the spokes.
MiroGadget make_disagree();

/// BAD GADGET: three nodes each preferring the path through the next; has no
/// stable state at all. Node "0" is the destination hub, "1"-"3" the spokes.
MiroGadget make_bad_gadget();

/// Guideline 2: peer routes share the customer preference band (ties broken
/// by path length, then next-hop AS number). Gao-Rexford prove convergence
/// still holds for this relaxation. `graph` must outlive the options.
ModelOptions relaxed_peering_options(const AsGraph& graph);

/// An undirected set of backup links.
class BackupLinks {
 public:
  void add(NodeId a, NodeId b) { links_.insert(key(a, b)); }
  bool contains(NodeId a, NodeId b) const {
    return links_.find(key(a, b)) != links_.end();
  }
  /// Number of backup links a path crosses — Gao-Rexford's preference
  /// level: routes with fewer backup links are always preferred.
  std::size_t count_on_path(const Path& path) const;

 private:
  static std::uint64_t key(NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  std::set<std::uint64_t> links_;
};

/// `count` draws of a uniformly random node and one of its links, marked as
/// a backup link (a draw that hits a node without links adds nothing).
BackupLinks random_backup_links(const AsGraph& graph, Rng& rng, int count);

/// Guideline 3: routes are ranked first by how many backup links they
/// cross (fewer is better, zero = primary), then by the conventional
/// class/length/ASN order; routes that cross a backup link are exported to
/// every neighbor, so backup connectivity propagates where conventional
/// export filtering would starve it. `graph` and `backups` must outlive the
/// options.
ModelOptions backup_link_options(const AsGraph& graph,
                                 const BackupLinks& backups);

}  // namespace miro::conv
