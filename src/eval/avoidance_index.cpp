#include "eval/avoidance_index.hpp"

#include <algorithm>
#include <iterator>

#include "common/error.hpp"
#include "common/memtrack.hpp"

namespace miro::eval {

using topo::kInvalidNode;
using topo::NodeId;

AvoidanceIndex::AvoidanceIndex(const topo::AsGraph& graph) {
  const std::size_t n = graph.node_count();
  constexpr std::uint32_t kUnseen = static_cast<std::uint32_t>(-1);
  disc_.assign(n, kUnseen);
  last_.resize(n);
  low_.resize(n);
  root_.resize(n);
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<NodeId> order;  // nodes in discovery order
  order.reserve(n);

  // Explicit DFS stack: each frame is a node and the index of the next
  // neighbor it scans.
  struct Frame {
    NodeId node;
    std::uint32_t next;
  };
  std::vector<Frame> stack;
  std::uint32_t time = 0;
  for (NodeId root = 0; root < n; ++root) {
    if (disc_[root] != kUnseen) continue;
    auto discover = [&](NodeId node, NodeId from) {
      disc_[node] = low_[node] = time++;
      root_[node] = root;
      parent[node] = from;
      order.push_back(node);
      stack.push_back({node, 0});
    };
    discover(root, kInvalidNode);
    while (!stack.empty()) {
      const NodeId node = stack.back().node;
      const topo::NeighborRange neighbors = graph.neighbors(node);
      if (stack.back().next < neighbors.size()) {
        const NodeId next = neighbors[stack.back().next++].node;
        if (disc_[next] == kUnseen) {
          discover(next, node);
        } else if (next != parent[node]) {
          low_[node] = std::min(low_[node], disc_[next]);
        }
        continue;
      }
      stack.pop_back();
      last_[node] = time - 1;
      if (parent[node] != kInvalidNode)
        low_[parent[node]] = std::min(low_[parent[node]], low_[node]);
    }
  }

  // Children as a CSR, each node's segment in discovery order.
  child_offsets_.assign(n + 1, 0);
  for (NodeId node : order)
    if (parent[node] != kInvalidNode) ++child_offsets_[parent[node] + 1];
  for (std::size_t i = 0; i < n; ++i)
    child_offsets_[i + 1] += child_offsets_[i];
  children_.resize(child_offsets_[n]);
  std::vector<std::uint32_t> fill(child_offsets_.begin(),
                                  child_offsets_.end() - 1);
  for (NodeId node : order)
    if (parent[node] != kInvalidNode) children_[fill[parent[node]]++] = node;
}

NodeId AvoidanceIndex::piece(NodeId node, NodeId avoid) const {
  if (disc_[node] < disc_[avoid] || disc_[node] > last_[avoid])
    return kInvalidNode;  // outside avoid's subtree
  // The child whose subtree holds `node`: the last one discovered at or
  // before it. node != avoid, so avoid's first child qualifies.
  const auto begin = children_.begin() + child_offsets_[avoid];
  const auto end = children_.begin() + child_offsets_[avoid + 1];
  const auto before = [this](std::uint32_t time, NodeId child) {
    return time < disc_[child];
  };
  const NodeId child =
      *std::prev(std::upper_bound(begin, end, disc_[node], before));
  return low_[child] >= disc_[avoid] ? child : kInvalidNode;
}

bool AvoidanceIndex::reachable(NodeId source, NodeId destination,
                               NodeId avoid) const {
  const std::size_t n = disc_.size();
  require(source < n && destination < n && avoid < n,
          "AvoidanceIndex: node id out of range");
  if (source == avoid || destination == avoid) return false;
  if (source == destination) return true;
  return root_[source] == root_[destination] &&
         piece(source, avoid) == piece(destination, avoid);
}

std::uint64_t AvoidanceIndex::memory_bytes() const {
  return vector_bytes(disc_) + vector_bytes(last_) + vector_bytes(low_) +
         vector_bytes(root_) + vector_bytes(child_offsets_) +
         vector_bytes(children_);
}

}  // namespace miro::eval
