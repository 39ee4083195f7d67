// Suffix-sharing AS-path interning.
//
// Learned AS-paths toward one destination overwhelmingly share long
// suffixes: every path funnels into the destination's neighborhood, so the
// distinct suffix count grows like the node count while the raw path bytes
// grow like (routes × path length). The table stores each distinct suffix
// once as a (head node, parent suffix) pair and hands out dense 32-bit
// PathIds; a full path is a chain of parents ending at the destination's
// single-node path. Equal paths always intern to the same id, so equality
// is one integer compare — the RIB dedup/flap checks that used to compare
// whole vectors become O(1). Entries are append-only (12 bytes each plus
// the dedup map); each SessionedBgpNetwork owns one for as long as it
// lives.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bgp/route.hpp"
#include "common/memtrack.hpp"

namespace miro::bgp {

/// Dense id of one interned path; 0 (kNullPath) is "no path".
using PathId = std::uint32_t;
constexpr PathId kNullPath = 0;

class PathTable {
 public:
  PathTable();

  /// Interns [node, suffix...]: the path whose owner is `node` and whose
  /// remainder is the already-interned `suffix` (kNullPath for none, which
  /// makes the single-node path {node} of an origin).
  PathId extend(NodeId node, PathId suffix);

  /// Owner (front) node of an interned path.
  NodeId head(PathId id) const {
    check(id);
    return entries_[id].node;
  }
  /// The path minus its head; kNullPath for a single-node path.
  PathId suffix(PathId id) const {
    check(id);
    return entries_[id].parent;
  }
  /// Node count of the path (0 for kNullPath).
  std::uint32_t length(PathId id) const {
    return id == kNullPath ? 0 : (check(id), entries_[id].length);
  }

  /// True when `node` appears anywhere on the path (the loop check).
  bool contains(PathId id, NodeId node) const;

  /// Rebuilds the path [owner, ..., destination] into `out` (cleared
  /// first); reusing one scratch vector across calls avoids per-call
  /// allocation.
  void materialize_into(PathId id, std::vector<NodeId>& out) const;
  std::vector<NodeId> materialize(PathId id) const;

  /// Distinct suffixes interned so far (excluding the null sentinel).
  std::size_t size() const { return entries_.size() - 1; }

  /// Resident byte footprint: the entry array plus the dedup index
  /// (capacity walk, deterministic for a given intern sequence).
  std::uint64_t memory_bytes() const {
    return vector_bytes(entries_) + hash_map_bytes(dedup_);
  }

 private:
  struct Entry {
    NodeId node = topo::kInvalidNode;
    PathId parent = kNullPath;
    std::uint32_t length = 0;  ///< nodes on the chain, this entry included
  };

  void check(PathId id) const {
    require(id != kNullPath && id < entries_.size(),
            "PathTable: invalid path id");
  }
  static std::uint64_t key(NodeId node, PathId parent) {
    return (static_cast<std::uint64_t>(node) << 32) | parent;
  }

  std::vector<Entry> entries_;  ///< entries_[0] is the kNullPath sentinel
  std::unordered_map<std::uint64_t, PathId> dedup_;
};

}  // namespace miro::bgp
