#include "convergence/gadgets.hpp"

namespace miro::conv {

MiroGadget make_figure_7_1(Guideline guideline) {
  MiroGadget gadget;
  topo::GraphBuilder builder;
  // AS numbers chosen to read like the figure: D=40, A=10, B=20, C=30.
  const NodeId a = builder.add_as(10);
  const NodeId b = builder.add_as(20);
  const NodeId c = builder.add_as(30);
  const NodeId d = builder.add_as(40);
  gadget.nodes = {{"A", a}, {"B", b}, {"C", c}, {"D", d}};
  // A, B, C are customers of D; they peer with each other.
  builder.add_customer_provider(d, a);
  builder.add_customer_provider(d, b);
  builder.add_customer_provider(d, c);
  builder.add_peer(a, b);
  builder.add_peer(b, c);
  builder.add_peer(c, a);
  gadget.graph = std::move(builder).build();

  gadget.destinations = {d};
  gadget.options.guideline = guideline;
  // Each AS wants exactly the two-hop tunnel through the next peer.
  gadget.options.tunnels = {
      {a, b, d, Path{a, b, d}},
      {b, c, d, Path{b, c, d}},
      {c, a, d, Path{c, a, d}},
  };
  if (guideline == Guideline::D) {
    gadget.options.partial_order = [](NodeId, NodeId first_downstream,
                                      NodeId destination) {
      return first_downstream < destination;
    };
  }
  return gadget;
}

MiroGadget make_figure_7_2(Guideline guideline) {
  MiroGadget gadget;
  topo::GraphBuilder builder;
  const NodeId a = builder.add_as(10);
  const NodeId b = builder.add_as(20);
  const NodeId c = builder.add_as(30);
  const NodeId d = builder.add_as(40);
  gadget.nodes = {{"A", a}, {"B", b}, {"C", c}, {"D", d}};
  // D is a customer of A, B, and C; A, B, C form a peering triangle.
  builder.add_customer_provider(a, d);
  builder.add_customer_provider(b, d);
  builder.add_customer_provider(c, d);
  builder.add_peer(a, b);
  builder.add_peer(b, c);
  builder.add_peer(c, a);
  gadget.graph = std::move(builder).build();

  gadget.destinations = {a, b, c};
  gadget.options.guideline = guideline;
  // D always pays less through a tunnel: D(BA) to reach A, D(CB) to reach B,
  // D(AC) to reach C.
  gadget.options.tunnels = {
      {d, b, a, Path{d, b, a}},
      {d, c, b, Path{d, c, b}},
      {d, a, c, Path{d, a, c}},
  };
  if (guideline == Guideline::D) {
    gadget.options.partial_order = [](NodeId, NodeId first_downstream,
                                      NodeId destination) {
      return first_downstream < destination;
    };
  }
  return gadget;
}

namespace {

/// Shared scaffold: `spokes` nodes around the destination hub (node 0),
/// every spoke linked to the hub and to the next spoke. The links are all
/// peerings, but the hooks override all policy: everything is exported,
/// and each spoke ranks the path through its clockwise ring neighbor above
/// the direct path and every other path below it. The original gadgets
/// permit only those two paths; ranking the rest last is equivalent,
/// because the hub always offers the direct path.
MiroGadget make_ring(std::size_t spokes) {
  MiroGadget gadget;
  topo::GraphBuilder builder;
  const NodeId hub = builder.add_as(100);
  gadget.nodes.emplace("0", hub);
  std::vector<NodeId> ring;
  for (std::size_t i = 0; i < spokes; ++i) {
    NodeId node = builder.add_as(static_cast<topo::AsNumber>(101 + i));
    builder.add_peer(node, hub);
    gadget.nodes.emplace(std::string(1, static_cast<char>('1' + i)), node);
    ring.push_back(node);
  }
  // Ring links (a 2-ring is a single link, not a parallel pair).
  const std::size_t ring_links = spokes == 2 ? 1 : spokes;
  for (std::size_t i = 0; i < ring_links; ++i)
    builder.add_peer(ring[i], ring[(i + 1) % spokes]);
  gadget.graph = std::move(builder).build();
  gadget.destinations = {hub};

  // Spoke k is node k, so its clockwise neighbor is node 1 + k % spokes.
  auto rank_of = [spokes](const bgp::Route& route) {
    const NodeId next_spoke =
        static_cast<NodeId>(1 + route.owner() % spokes);
    if (route.path.size() == 3 && route.path[1] == next_spoke) return 1;
    if (route.path.size() == 2) return 2;  // direct
    return 3;
  };
  gadget.options.exports = [](NodeId, const bgp::Route&, NodeId) {
    return true;
  };
  gadget.options.prefers = [rank_of](const bgp::Route& a,
                                     const bgp::Route& b) {
    const int ra = rank_of(a);
    const int rb = rank_of(b);
    if (ra != rb) return ra < rb;
    return a.path < b.path;
  };
  return gadget;
}

}  // namespace

MiroGadget make_disagree() { return make_ring(2); }

MiroGadget make_bad_gadget() { return make_ring(3); }

ModelOptions relaxed_peering_options(const AsGraph& graph) {
  ModelOptions options;
  const AsGraph* g = &graph;
  options.prefers = [g](const bgp::Route& a, const bgp::Route& b) {
    // Customer and peer routes share the top band.
    auto band = [](RouteClass cls) {
      switch (cls) {
        case RouteClass::Self: return 0;
        case RouteClass::Customer:
        case RouteClass::Peer: return 1;
        case RouteClass::Provider: return 2;
      }
      return 2;
    };
    if (band(a.route_class) != band(b.route_class))
      return band(a.route_class) < band(b.route_class);
    if (a.length() != b.length()) return a.length() < b.length();
    const topo::AsNumber next_a = g->as_number(a.next_hop());
    const topo::AsNumber next_b = g->as_number(b.next_hop());
    if (next_a != next_b) return next_a < next_b;
    return a.path < b.path;
  };
  return options;
}

std::size_t BackupLinks::count_on_path(const Path& path) const {
  std::size_t count = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    if (contains(path[i], path[i + 1])) ++count;
  return count;
}

BackupLinks random_backup_links(const AsGraph& graph, Rng& rng, int count) {
  BackupLinks backups;
  for (int i = 0; i < count; ++i) {
    const auto node =
        static_cast<NodeId>(rng.next_below(graph.node_count()));
    if (graph.degree(node) == 0) continue;
    backups.add(node,
                graph.neighbors(node)[rng.next_below(graph.degree(node))].node);
  }
  return backups;
}

ModelOptions backup_link_options(const AsGraph& graph,
                                 const BackupLinks& backups) {
  ModelOptions options;
  const AsGraph* g = &graph;
  const BackupLinks* b = &backups;
  options.exports = [g, b](NodeId owner, const bgp::Route& route,
                           NodeId neighbor) {
    // Backup routes propagate everywhere: "backup links ... normally carry
    // no traffic unless there is a link failure", so reachability through
    // them must not be filtered away by the conventional rules.
    if (b->count_on_path(route.path) > 0) return true;
    return bgp::conventional_export_allows(route.route_class,
                                           g->relationship(owner, neighbor));
  };
  options.prefers = [g, b](const bgp::Route& x, const bgp::Route& y) {
    const std::size_t bx = b->count_on_path(x.path);
    const std::size_t by = b->count_on_path(y.path);
    if (bx != by) return bx < by;  // fewest backup links wins outright
    return bgp::prefer(x, y, *g);
  };
  return options;
}

}  // namespace miro::conv
