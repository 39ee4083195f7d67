#include "eval/dataset_report.hpp"

#include <ostream>

#include "common/stats.hpp"
#include "common/table.hpp"

namespace miro::eval {

void print_dataset_table(
    const std::vector<std::pair<std::string, const topo::AsGraph*>>& graphs,
    double scale, std::ostream& out) {
  out << "Table 5.1 — attributes of the (synthetic) data sets, scale="
      << scale << "\n";
  TextTable table({"Name", "# of Nodes", "# of Edges", "P/C links",
                   "Peering links", "Sibling links", "Stubs",
                   "Multi-homed stubs"});
  for (const auto& [profile, graph] : graphs) {
    const topo::TopologySummary summary = topo::summarize(*graph);
    table.add_row({profile, std::to_string(summary.nodes),
                   std::to_string(summary.edges),
                   std::to_string(summary.customer_provider_links),
                   std::to_string(summary.peer_links),
                   std::to_string(summary.sibling_links),
                   std::to_string(summary.stub_count),
                   std::to_string(summary.multi_homed_stub_count)});
  }
  table.print(out);
}

void print_degree_distribution(const std::string& profile,
                               const topo::AsGraph& graph, std::ostream& out) {
  out << "Figure 5.1 — node degree distribution [" << profile
      << ", n=" << graph.node_count() << "]\n";

  std::vector<double> degrees;
  degrees.reserve(graph.node_count());
  for (topo::NodeId id = 0; id < graph.node_count(); ++id)
    degrees.push_back(static_cast<double>(graph.degree(id)));

  TextTable table({"degree bucket", "nodes", "fraction"});
  const auto buckets = log2_histogram(degrees);
  for (const auto& bucket : buckets) {
    if (bucket.count == 0) continue;
    table.add_row(
        {std::string("[")
             .append(TextTable::num(bucket.lower, 0))
             .append(", ")
             .append(TextTable::num(bucket.upper, 0))
             .append(")"),
         std::to_string(bucket.count),
         TextTable::percent(static_cast<double>(bucket.count) /
                            static_cast<double>(graph.node_count()))});
  }
  table.print(out);

  // The paper's headline cuts, scaled: "only 0.2% of the ASes has more than
  // 200 neighbors, and less than 1% has more than 40".
  out << "fraction with degree > 40: "
      << TextTable::percent(topo::fraction_with_degree_above(graph, 40), 2)
      << ", degree > 200: "
      << TextTable::percent(topo::fraction_with_degree_above(graph, 200), 2)
      << "\n";
}

}  // namespace miro::eval
