// AS-level topology annotated with business relationships.
//
// "Today's Internet is a loose federation of ASes" (Section 2.2.1). Edges
// carry one of the three prevalent relationships: customer-provider, peer, or
// sibling. The evaluation chapter's experiments all run over this graph.
//
// Every graph — generated, loaded from a CAIDA snapshot, inferred from
// paths, or written out by hand — is made by a GraphBuilder and has one
// layout: a struct-of-arrays CSR, one offset array plus parallel
// node/relationship edge arrays, each node's segment sorted by neighbor id
// (≈14 bytes/edge on the paper profiles). has_edge/relationship are
// O(log d) binary searches, and neighbors iterate in ascending node id.
// The layout is what makes the internet2006-scale profiles (70k ASes, 100k+
// edges) fit the eval pipeline. An AsGraph never changes once built.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace miro::topo {

/// A 16/32-bit Autonomous System number as registered publicly.
using AsNumber = std::uint32_t;

/// Dense internal node index; all algorithms run on these.
using NodeId = std::uint32_t;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// What a neighbor is *to me*: my customer, my provider, my peer, or my
/// sibling. Stored per directed half-edge, so the two halves of one
/// customer-provider link carry Customer on the provider side and Provider on
/// the customer side.
enum class Relationship : std::uint8_t { Customer, Provider, Peer, Sibling };

/// The reverse perspective of a relationship. A value outside the enum (a
/// corrupted or miscast byte) throws instead of silently becoming a Peer
/// edge — the wrong relationship would otherwise leak into export policy.
constexpr Relationship reverse(Relationship rel) {
  switch (rel) {
    case Relationship::Customer: return Relationship::Provider;
    case Relationship::Provider: return Relationship::Customer;
    case Relationship::Peer: return Relationship::Peer;
    case Relationship::Sibling: return Relationship::Sibling;
  }
  throw Error("reverse: corrupted Relationship value");
}

const char* to_string(Relationship rel);

/// A directed half-edge as seen from the owning node.
struct Neighbor {
  NodeId node = kInvalidNode;
  Relationship rel = Relationship::Peer;
};

/// One node's neighbors: a view of its segment in the graph's parallel
/// node/relationship arrays, in ascending node id. Iteration yields
/// Neighbor by value.
class NeighborRange {
 public:
  NeighborRange(const NodeId* nodes, const Relationship* rels,
                std::size_t size)
      : nodes_(nodes), rels_(rels), size_(size) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Neighbor operator[](std::size_t i) const { return {nodes_[i], rels_[i]}; }
  Neighbor front() const { return (*this)[0]; }

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Neighbor;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Neighbor;

    iterator(const NeighborRange* range, std::size_t i)
        : range_(range), i_(i) {}
    Neighbor operator*() const { return (*range_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++i_;
      return copy;
    }
    bool operator==(const iterator& other) const { return i_ == other.i_; }
    bool operator!=(const iterator& other) const { return i_ != other.i_; }

   private:
    const NeighborRange* range_;
    std::size_t i_;
  };

  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size_}; }

 private:
  const NodeId* nodes_;
  const Relationship* rels_;
  std::size_t size_;
};

/// Undirected, relationship-annotated AS graph in the CSR layout (see file
/// comment). GraphBuilder::build() makes one; a default-constructed graph
/// is empty.
class AsGraph {
 public:
  std::size_t node_count() const { return as_numbers_.size(); }
  std::size_t edge_count() const { return edge_nodes_.size() / 2; }

  AsNumber as_number(NodeId id) const {
    check_node(id);
    return as_numbers_[id];
  }
  /// Dense id for an AS number; kInvalidNode when unknown.
  NodeId find(AsNumber asn) const;
  /// Dense id for an AS number; throws when unknown.
  NodeId require_node(AsNumber asn) const;

  NeighborRange neighbors(NodeId id) const {
    check_node(id);
    const std::uint32_t begin = offsets_[id];
    return {edge_nodes_.data() + begin, edge_rels_.data() + begin,
            offsets_[id + 1] - begin};
  }
  std::size_t degree(NodeId id) const {
    check_node(id);
    return offsets_[id + 1] - offsets_[id];
  }

  /// Half-edges: every directed (node, neighbor) pair has a dense index,
  /// its position in the CSR arrays. Node `id`'s half-edges are
  /// first_half_edge(id) + i for i < degree(id), in neighbors(id) order, so
  /// per-neighbor state can live in a flat array instead of a map.
  std::size_t half_edge_count() const { return edge_nodes_.size(); }
  std::uint32_t first_half_edge(NodeId id) const {
    check_node(id);
    return offsets_[id];
  }
  /// The half-edge from a to b; O(log d); throws when no edge exists.
  std::uint32_t half_edge(NodeId a, NodeId b) const;
  /// The far end of half-edge `h`, with its relationship to the near end.
  Neighbor half_edge_target(std::uint32_t h) const {
    require(h < edge_nodes_.size(), "AsGraph: half-edge out of range");
    return {edge_nodes_[h], edge_rels_[h]};
  }

  /// True when an edge (of any relationship) exists between a and b;
  /// O(log d).
  bool has_edge(NodeId a, NodeId b) const;
  /// The relationship of b as seen from a; throws when no edge exists.
  Relationship relationship(NodeId a, NodeId b) const;

  /// Providers / customers / peers / siblings of `id` (filtered view, copies).
  std::vector<NodeId> neighbors_with(NodeId id, Relationship rel) const;

  /// Number of edges of each relationship kind (counting each link once;
  /// customer-provider counted on the provider side).
  struct EdgeCounts {
    std::size_t customer_provider = 0;
    std::size_t peer = 0;
    std::size_t sibling = 0;
  };
  EdgeCounts edge_counts() const;

  /// A stub AS only acts as a customer (no customers, no peers, no siblings);
  /// these are the "leaf nodes" of Chapter 7.
  bool is_stub(NodeId id) const;
  /// Multi-homed: connected to more than one provider.
  bool is_multi_homed_stub(NodeId id) const;

  /// Resident byte footprint of the graph's arrays, computed from
  /// capacities (reserved storage counts). Deterministic for a given
  /// construction sequence — the number behind every bytes_per_edge bench
  /// row.
  std::uint64_t memory_bytes() const;

 private:
  friend class GraphBuilder;

  void check_node(NodeId id) const {
    require(id < as_numbers_.size(), "AsGraph: node id out of range");
  }
  /// Index of b within a's sorted segment; npos when absent.
  std::size_t find_edge(NodeId a, NodeId b) const;

  std::vector<AsNumber> as_numbers_;
  std::vector<std::uint32_t> offsets_;    ///< node_count()+1 entries
  std::vector<NodeId> edge_nodes_;        ///< per-node segments, sorted
  std::vector<Relationship> edge_rels_;   ///< parallel to edge_nodes_
  bool identity_asns_ = false;            ///< as_numbers_[i] == i + 1
  std::vector<std::pair<AsNumber, NodeId>> sorted_index_;  ///< else: sorted
};

/// Makes an AsGraph. ASes and links are appended and checked (duplicate
/// ASN, self-loop, parallel link, node range); the queries a producer needs
/// while it is still adding links — find, degree, has_edge — answer from
/// per-node adjacency lists. build() lays out the CSR.
class GraphBuilder {
 public:
  /// Adds an AS; returns its dense node id. Duplicate AS numbers throw.
  NodeId add_as(AsNumber asn);

  /// Adds a customer-provider link (provider earns the Customer half-edge).
  void add_customer_provider(NodeId provider, NodeId customer);
  /// Adds a peer-peer link.
  void add_peer(NodeId a, NodeId b);
  /// Adds a sibling link (mutual transit, typically one institution).
  void add_sibling(NodeId a, NodeId b);

  std::size_t node_count() const { return as_numbers_.size(); }
  std::size_t edge_count() const { return edge_count_; }
  /// Dense id for an AS number; kInvalidNode when unknown.
  NodeId find(AsNumber asn) const;
  std::size_t degree(NodeId id) const {
    check_node(id);
    return adjacency_[id].size();
  }
  /// O(min(degree(a), degree(b))).
  bool has_edge(NodeId a, NodeId b) const;

  /// The graph: per-node edge segments sorted by neighbor id, and an ASN
  /// index that collapses to a bounds check when the AS numbers are 1..N
  /// in node order (the generator's convention). The AS number array moves
  /// into the graph with its capacity.
  AsGraph build() &&;

 private:
  void check_node(NodeId id) const {
    require(id < as_numbers_.size(), "GraphBuilder: node id out of range");
  }
  void add_half_edges(NodeId a, NodeId b, Relationship rel_of_b_to_a);

  std::vector<AsNumber> as_numbers_;
  std::vector<std::vector<Neighbor>> adjacency_;
  std::unordered_map<AsNumber, NodeId> index_;
  std::size_t edge_count_ = 0;
};

}  // namespace miro::topo
