#include "topology/as_graph.hpp"

#include <algorithm>

#include "common/memtrack.hpp"

namespace miro::topo {

const char* to_string(Relationship rel) {
  switch (rel) {
    case Relationship::Customer: return "customer";
    case Relationship::Provider: return "provider";
    case Relationship::Peer: return "peer";
    case Relationship::Sibling: return "sibling";
  }
  return "?";
}

NodeId AsGraph::find(AsNumber asn) const {
  if (identity_asns_) {
    return asn >= 1 && asn <= as_numbers_.size()
               ? static_cast<NodeId>(asn - 1)
               : kInvalidNode;
  }
  const auto it = std::lower_bound(
      sorted_index_.begin(), sorted_index_.end(), asn,
      [](const std::pair<AsNumber, NodeId>& entry, AsNumber value) {
        return entry.first < value;
      });
  return it != sorted_index_.end() && it->first == asn ? it->second
                                                       : kInvalidNode;
}

NodeId AsGraph::require_node(AsNumber asn) const {
  NodeId id = find(asn);
  require(id != kInvalidNode, "AsGraph: unknown AS number");
  return id;
}

std::size_t AsGraph::find_edge(NodeId a, NodeId b) const {
  const auto first = edge_nodes_.begin() + offsets_[a];
  const auto last = edge_nodes_.begin() + offsets_[a + 1];
  const auto it = std::lower_bound(first, last, b);
  if (it == last || *it != b) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - edge_nodes_.begin());
}

bool AsGraph::has_edge(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  // Binary-search the lower-degree side's sorted segment.
  if (degree(b) < degree(a)) std::swap(a, b);
  return find_edge(a, b) != static_cast<std::size_t>(-1);
}

std::uint32_t AsGraph::half_edge(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  const std::size_t at = find_edge(a, b);
  require(at != static_cast<std::size_t>(-1),
          "AsGraph::half_edge: no such edge");
  return static_cast<std::uint32_t>(at);
}

Relationship AsGraph::relationship(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  const std::size_t at = find_edge(a, b);
  require(at != static_cast<std::size_t>(-1),
          "AsGraph::relationship: no such edge");
  return edge_rels_[at];
}

std::vector<NodeId> AsGraph::neighbors_with(NodeId id, Relationship rel) const {
  std::vector<NodeId> out;
  for (const Neighbor& n : neighbors(id))
    if (n.rel == rel) out.push_back(n.node);
  return out;
}

AsGraph::EdgeCounts AsGraph::edge_counts() const {
  EdgeCounts counts;
  for (NodeId id = 0; id < as_numbers_.size(); ++id) {
    for (const Neighbor& n : neighbors(id)) {
      if (n.rel == Relationship::Customer) ++counts.customer_provider;
      if (n.rel == Relationship::Peer && n.node > id) ++counts.peer;
      if (n.rel == Relationship::Sibling && n.node > id) ++counts.sibling;
    }
  }
  return counts;
}

bool AsGraph::is_stub(NodeId id) const {
  const NeighborRange range = neighbors(id);
  for (const Neighbor& n : range)
    if (n.rel != Relationship::Provider) return false;
  return !range.empty();
}

bool AsGraph::is_multi_homed_stub(NodeId id) const {
  if (!is_stub(id)) return false;
  std::size_t providers = 0;
  for (const Neighbor& n : neighbors(id))
    if (n.rel == Relationship::Provider) ++providers;
  return providers >= 2;
}

std::uint64_t AsGraph::memory_bytes() const {
  return vector_bytes(as_numbers_) + vector_bytes(offsets_) +
         vector_bytes(edge_nodes_) + vector_bytes(edge_rels_) +
         vector_bytes(sorted_index_);
}

NodeId GraphBuilder::add_as(AsNumber asn) {
  require(index_.find(asn) == index_.end(),
          "GraphBuilder::add_as: duplicate ASN");
  NodeId id = static_cast<NodeId>(as_numbers_.size());
  as_numbers_.push_back(asn);
  adjacency_.emplace_back();
  index_.emplace(asn, id);
  return id;
}

void GraphBuilder::add_half_edges(NodeId a, NodeId b,
                                  Relationship rel_of_b_to_a) {
  require(a != b, "GraphBuilder: self-loops are not allowed");
  require(!has_edge(a, b), "GraphBuilder: parallel edges are not allowed");
  adjacency_[a].push_back({b, rel_of_b_to_a});
  adjacency_[b].push_back({a, reverse(rel_of_b_to_a)});
  ++edge_count_;
}

void GraphBuilder::add_customer_provider(NodeId provider, NodeId customer) {
  add_half_edges(provider, customer, Relationship::Customer);
}

void GraphBuilder::add_peer(NodeId a, NodeId b) {
  add_half_edges(a, b, Relationship::Peer);
}

void GraphBuilder::add_sibling(NodeId a, NodeId b) {
  add_half_edges(a, b, Relationship::Sibling);
}

NodeId GraphBuilder::find(AsNumber asn) const {
  auto it = index_.find(asn);
  return it == index_.end() ? kInvalidNode : it->second;
}

bool GraphBuilder::has_edge(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  // Scan the shorter list: a new customer has a handful of links however
  // many its would-be provider has.
  if (adjacency_[b].size() < adjacency_[a].size()) std::swap(a, b);
  const std::vector<Neighbor>& list = adjacency_[a];
  return std::any_of(list.begin(), list.end(),
                     [b](const Neighbor& n) { return n.node == b; });
}

AsGraph GraphBuilder::build() && {
  AsGraph graph;
  const std::size_t n = as_numbers_.size();
  graph.offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    graph.offsets_[i + 1] =
        graph.offsets_[i] + static_cast<std::uint32_t>(adjacency_[i].size());
  }
  graph.edge_nodes_.resize(graph.offsets_[n]);
  graph.edge_rels_.resize(graph.offsets_[n]);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Neighbor>& list = adjacency_[i];
    std::sort(list.begin(), list.end(),
              [](const Neighbor& x, const Neighbor& y) {
                return x.node < y.node;
              });
    std::uint32_t out = graph.offsets_[i];
    for (const Neighbor& neighbor : list) {
      graph.edge_nodes_[out] = neighbor.node;
      graph.edge_rels_[out] = neighbor.rel;
      ++out;
    }
  }

  // The generator numbers ASes 1..N; detecting that collapses the ASN index
  // to a bounds check. Arbitrary ASNs (loaded snapshots) get a sorted array.
  graph.identity_asns_ = true;
  for (std::size_t i = 0; i < n; ++i) {
    if (as_numbers_[i] != static_cast<AsNumber>(i + 1)) {
      graph.identity_asns_ = false;
      break;
    }
  }
  if (!graph.identity_asns_) {
    graph.sorted_index_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      graph.sorted_index_.emplace_back(as_numbers_[i], static_cast<NodeId>(i));
    std::sort(graph.sorted_index_.begin(), graph.sorted_index_.end());
  }
  graph.as_numbers_ = std::move(as_numbers_);
  return graph;
}

}  // namespace miro::topo
