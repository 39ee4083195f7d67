#include "bgp/path_table.hpp"

#include <algorithm>

namespace miro::bgp {

PathTable::PathTable() : entries_(1) {}  // slot 0 = kNullPath sentinel

PathId PathTable::extend(NodeId node, PathId suffix) {
  require(node != topo::kInvalidNode, "PathTable::extend: invalid node");
  if (suffix != kNullPath) check(suffix);
  const auto [it, inserted] =
      dedup_.try_emplace(key(node, suffix), kNullPath);
  if (!inserted) return it->second;
  const PathId id = static_cast<PathId>(entries_.size());
  entries_.push_back({node, suffix, length(suffix) + 1});
  it->second = id;
  return id;
}

bool PathTable::contains(PathId id, NodeId node) const {
  for (; id != kNullPath; id = entries_[id].parent) {
    check(id);
    if (entries_[id].node == node) return true;
  }
  return false;
}

void PathTable::materialize_into(PathId id, std::vector<NodeId>& out) const {
  out.clear();
  if (id == kNullPath) return;
  check(id);
  out.reserve(entries_[id].length);
  for (; id != kNullPath; id = entries_[id].parent)
    out.push_back(entries_[id].node);
}

std::vector<NodeId> PathTable::materialize(PathId id) const {
  std::vector<NodeId> out;
  materialize_into(id, out);
  return out;
}

}  // namespace miro::bgp
