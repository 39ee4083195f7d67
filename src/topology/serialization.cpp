#include "topology/serialization.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/strings.hpp"

namespace miro::topo {

void save(const AsGraph& graph, std::ostream& out) {
  out << "# miro as-relationship graph: provider|customer|-1, peer|peer|0, "
         "sibling|sibling|2\n";
  for (NodeId id = 0; id < graph.node_count(); ++id) {
    for (const Neighbor& n : graph.neighbors(id)) {
      switch (n.rel) {
        case Relationship::Customer:
          out << graph.as_number(id) << '|' << graph.as_number(n.node)
              << "|-1\n";
          break;
        case Relationship::Peer:
          if (n.node > id)
            out << graph.as_number(id) << '|' << graph.as_number(n.node)
                << "|0\n";
          break;
        case Relationship::Sibling:
          if (n.node > id)
            out << graph.as_number(id) << '|' << graph.as_number(n.node)
                << "|2\n";
          break;
        case Relationship::Provider:
          break;  // written from the provider side
      }
    }
  }
}

AsGraph load(std::istream& in) {
  GraphBuilder builder;
  std::string line;
  std::size_t line_number = 0;
  auto node_of = [&builder](AsNumber asn) {
    NodeId id = builder.find(asn);
    return id == kInvalidNode ? builder.add_as(asn) : id;
  };
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text = trim(line);
    if (text.empty() || text.front() == '#') continue;
    auto fields = split(text, '|');
    auto fail = [&](std::string_view why) {
      throw Error("topology load: line " + std::to_string(line_number) + ": " +
                  std::string(why));
    };
    if (fields.size() != 3) fail("expected 3 pipe-separated fields");
    auto a = parse_u64(trim(fields[0]));
    auto b = parse_u64(trim(fields[1]));
    auto rel = parse_i64(trim(fields[2]));
    if (!a || !b || !rel) fail("malformed AS number or relationship code");
    NodeId na = node_of(static_cast<AsNumber>(*a));
    NodeId nb = node_of(static_cast<AsNumber>(*b));
    switch (*rel) {
      case -1: builder.add_customer_provider(na, nb); break;
      case 0: builder.add_peer(na, nb); break;
      case 2: builder.add_sibling(na, nb); break;
      default: fail("relationship code must be -1, 0, or 2");
    }
  }
  return std::move(builder).build();
}

std::string to_text(const AsGraph& graph) {
  std::ostringstream out;
  save(graph, out);
  return out.str();
}

AsGraph from_text(const std::string& text) {
  std::istringstream in(text);
  return load(in);
}

void save_file(const AsGraph& graph, const std::string& path) {
  std::ofstream out(path);
  require(out.is_open(), "save_file: cannot open '" + path + "' for writing");
  save(graph, out);
  require(static_cast<bool>(out), "save_file: write failed for '" + path + "'");
}

AsGraph load_file(const std::string& path) {
  std::ifstream in(path);
  require(in.is_open(), "load_file: cannot open '" + path + "'");
  return load(in);
}

}  // namespace miro::topo
