// Source-routing reachability with one AS removed (Table 5.2's last
// column): does `source` still reach `destination` in the undirected AS
// graph once `avoid` is taken out?
//
// One DFS forest answers every (source, destination, avoid) query. Removing
// `a` cuts off exactly the DFS subtrees of those children c of `a` whose
// low-link cannot climb above `a` (low[c] >= disc[a]; for a DFS root that
// holds for every child): undirected DFS has no cross edges, so such a
// subtree touches nothing outside itself but `a`. Every other node of `a`'s
// component stays connected through `a`'s ancestors. So two nodes reach each
// other without `a` exactly when they share a component and fall in the
// same piece: the same cut-off child subtree, or both in the rest of the
// component. A node's piece is one binary search over `a`'s children, which
// are kept in discovery order.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/as_graph.hpp"

namespace miro::eval {

class AvoidanceIndex {
 public:
  /// One iterative DFS over `graph` (a DFS path through a 70k-AS graph can
  /// be thousands of nodes deep): O(n + m) time, 24 bytes per node.
  explicit AvoidanceIndex(const topo::AsGraph& graph);

  /// True when `source` reaches `destination` with `avoid` removed, as
  /// reachable_avoiding answers it: a removed AS reaches nothing and nothing
  /// reaches it; otherwise a node reaches itself. O(log degree(avoid)).
  /// Throws miro::Error unless all three ids are nodes of the graph.
  bool reachable(topo::NodeId source, topo::NodeId destination,
                 topo::NodeId avoid) const;

  /// Capacity walk of the index's arrays.
  std::uint64_t memory_bytes() const;

 private:
  /// The piece of its component `node` falls in once `avoid` (!= node) is
  /// removed: the cut-off child of `avoid` whose subtree holds it, or
  /// kInvalidNode for the rest of the component.
  topo::NodeId piece(topo::NodeId node, topo::NodeId avoid) const;

  std::vector<std::uint32_t> disc_;  ///< discovery time, 0..n-1
  std::vector<std::uint32_t> last_;  ///< last discovery time in the subtree
  std::vector<std::uint32_t> low_;   ///< low-link over non-tree edges
  std::vector<topo::NodeId> root_;   ///< the DFS root of the node's component
  std::vector<std::uint32_t> child_offsets_;  ///< node_count()+1 entries
  std::vector<topo::NodeId> children_;  ///< DFS children, discovery order
};

/// The sources that still reach one destination with one AS removed:
/// view[source] asks the index. Holds a pointer to the index, which must
/// outlive the view.
class AvoidanceView {
 public:
  AvoidanceView(const AvoidanceIndex& index, topo::NodeId destination,
                topo::NodeId avoid)
      : index_(&index), destination_(destination), avoid_(avoid) {}

  bool operator[](topo::NodeId source) const {
    return index_->reachable(source, destination_, avoid_);
  }

 private:
  const AvoidanceIndex* index_;
  topo::NodeId destination_;
  topo::NodeId avoid_;
};

}  // namespace miro::eval
