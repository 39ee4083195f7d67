// The dissertation's running example (Figures 1.1, 2.1 and 3.1): six ASes
// A..F (AS numbers 1..6) where the default route from A to F is A-B-E-F, A
// wants to avoid E, and the alternate B-C-F exists at B but is not
// announced. Relationships are chosen so the dissertation's stated
// preferences emerge from the conventional policies:
//   - F is a customer of C and E;  E is a customer of B and D;
//   - A is a customer of B and D;  B-C and C-E are peering links.
// Then B prefers BEF (customer) over BCF (peer), C prefers CF over CEF, and
// A picks ABEF (next-hop AS number tie-break over ADEF), exactly as in the
// figures.
#pragma once

#include "topology/as_graph.hpp"

namespace miro::topo {

struct Figure31 {
  AsGraph graph;
  NodeId a, b, c, d, e, f;

  Figure31() {
    GraphBuilder builder;
    a = builder.add_as(1);
    b = builder.add_as(2);
    c = builder.add_as(3);
    d = builder.add_as(4);
    e = builder.add_as(5);
    f = builder.add_as(6);
    builder.add_customer_provider(/*provider=*/b, /*customer=*/a);
    builder.add_customer_provider(d, a);
    builder.add_customer_provider(b, e);
    builder.add_customer_provider(d, e);
    builder.add_customer_provider(c, f);
    builder.add_customer_provider(e, f);
    builder.add_peer(b, c);
    builder.add_peer(c, e);
    graph = std::move(builder).build();
  }
};

}  // namespace miro::topo
