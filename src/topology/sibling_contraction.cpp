#include "topology/sibling_contraction.hpp"

#include <algorithm>
#include <map>

#include "common/union_find.hpp"

namespace miro::topo {

std::size_t ContractionResult::largest_group() const {
  std::size_t largest = 0;
  for (const auto& group : members)
    largest = std::max(largest, group.size());
  return largest;
}

std::size_t ContractionResult::multi_member_groups() const {
  std::size_t count = 0;
  for (const auto& group : members)
    if (group.size() > 1) ++count;
  return count;
}

ContractionResult contract_siblings(const AsGraph& graph) {
  const std::size_t n = graph.node_count();
  UnionFind components(n);
  for (NodeId id = 0; id < n; ++id)
    for (const Neighbor& neighbor : graph.neighbors(id))
      if (neighbor.rel == Relationship::Sibling)
        components.unite(id, neighbor.node);

  ContractionResult result;
  result.group_of.assign(n, kInvalidNode);

  // Assign group ids in order of first appearance; the representative AS
  // number is the smallest member's (stable and human-readable).
  std::vector<NodeId> root_to_group(n, kInvalidNode);
  for (NodeId id = 0; id < n; ++id) {
    const auto root = components.find(id);
    if (root_to_group[root] == kInvalidNode) {
      root_to_group[root] = static_cast<NodeId>(result.members.size());
      result.members.emplace_back();
    }
    result.group_of[id] = root_to_group[root];
    result.members[root_to_group[root]].push_back(id);
  }
  for (auto& group : result.members)
    std::sort(group.begin(), group.end());

  GraphBuilder builder;
  for (const auto& group : result.members) {
    AsNumber representative = graph.as_number(group.front());
    for (NodeId member : group)
      representative = std::min(representative, graph.as_number(member));
    builder.add_as(representative);
  }

  // Project the non-sibling edges; keep the most favorable relationship
  // when parallel originals disagree. Key: (customer-side group, other).
  // Relationship recorded from the perspective of the lower group id.
  std::map<std::pair<NodeId, NodeId>, Relationship> projected;
  auto better = [](Relationship a, Relationship b) {
    // Customer (the neighbor pays us) beats Peer beats Provider.
    auto score = [](Relationship rel) {
      switch (rel) {
        case Relationship::Customer: return 0;
        case Relationship::Peer: return 1;
        case Relationship::Provider: return 2;
        case Relationship::Sibling: return 3;
      }
      return 3;
    };
    return score(a) < score(b) ? a : b;
  };
  for (NodeId id = 0; id < n; ++id) {
    for (const Neighbor& neighbor : graph.neighbors(id)) {
      if (neighbor.rel == Relationship::Sibling) continue;
      const NodeId ga = result.group_of[id];
      const NodeId gb = result.group_of[neighbor.node];
      if (ga == gb) continue;  // intra-group non-sibling link: drop
      const auto key = ga < gb ? std::make_pair(ga, gb)
                               : std::make_pair(gb, ga);
      // Normalize to the lower group's perspective.
      const Relationship rel_of_high_to_low =
          ga < gb ? neighbor.rel : reverse(neighbor.rel);
      auto it = projected.find(key);
      if (it == projected.end()) {
        projected.emplace(key, rel_of_high_to_low);
      } else {
        it->second = better(it->second, rel_of_high_to_low);
      }
    }
  }
  for (const auto& [key, rel] : projected) {
    const auto [low, high] = key;
    switch (rel) {
      case Relationship::Customer:
        builder.add_customer_provider(/*provider=*/low, /*customer=*/high);
        break;
      case Relationship::Provider:
        builder.add_customer_provider(high, low);
        break;
      case Relationship::Peer:
        builder.add_peer(low, high);
        break;
      case Relationship::Sibling:
        break;  // unreachable
    }
  }
  result.graph = std::move(builder).build();
  return result;
}

}  // namespace miro::topo
