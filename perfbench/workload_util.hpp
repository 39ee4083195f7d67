// Input drawing and output checks shared by the workloads.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "bench.hpp"
#include "eval/experiments.hpp"
#include "topology/as_graph.hpp"
#include "topology/generator.hpp"

namespace perfbench {

inline const std::uint32_t kInternetNodes = static_cast<std::uint32_t>(
    miro::topo::profile("internet2006", 1.0).node_count);

/// Draws up to `sources` distinct sources that reach the tree's destination,
/// and every Section 5.3 tuple on their default paths: each AS strictly
/// between the source's first hop and the destination that is not adjacent
/// to the source. Works on a RoutingTree or a SymbolicRouteMap.
template <typename Tree>
std::vector<miro::eval::SampledTuple> sample_tuples(
    const miro::topo::AsGraph& graph, const Tree& tree,
    std::uint32_t sources, std::uint64_t seed) {
  InputRng rng(seed);
  const auto n = static_cast<std::uint32_t>(graph.node_count());
  const miro::topo::NodeId destination = tree.destination();
  std::vector<miro::topo::NodeId> drawn;
  std::vector<miro::eval::SampledTuple> tuples;
  for (int draw = 0; draw < 64 && drawn.size() < sources; ++draw) {
    const miro::topo::NodeId source = rng.below(n);
    if (source == destination || !tree.reachable(source) ||
        std::find(drawn.begin(), drawn.end(), source) != drawn.end())
      continue;
    drawn.push_back(source);
    const std::vector<miro::topo::NodeId> path = tree.path_of(source);
    for (std::size_t i = 2; i + 1 < path.size(); ++i) {
      if (graph.has_edge(source, path[i])) continue;
      tuples.push_back({source, destination, path[i], 0});
    }
  }
  return tuples;
}

/// Empty when `path` runs from `source` to `destination` over graph edges,
/// repeats no AS and avoids `avoid`; otherwise what is wrong with it.
inline std::string path_problem(const miro::topo::AsGraph& graph,
                                const std::vector<miro::topo::NodeId>& path,
                                miro::topo::NodeId source,
                                miro::topo::NodeId destination,
                                miro::topo::NodeId avoid) {
  if (path.empty() || path.front() != source || path.back() != destination)
    return "does not run from source to destination";
  std::vector<miro::topo::NodeId> seen = path;
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end())
    return "repeats an AS";
  if (std::find(path.begin(), path.end(), avoid) != path.end())
    return "crosses the avoided AS";
  for (std::size_t i = 0; i + 1 < path.size(); ++i)
    if (!graph.has_edge(path[i], path[i + 1])) return "uses a non-edge";
  return {};
}

/// topology.generate_ms (mean over the run's set-ups of the span that
/// generated the graph) and topology.bytes_per_edge.
inline void add_topology_metrics(const SpanTotals& spans,
                                 const std::string& generate_span,
                                 const miro::topo::AsGraph& graph,
                                 Metrics& out) {
  out.set("topology.generate_ms", spans.setup_mean_ms(generate_span), "ms");
  out.set("topology.bytes_per_edge",
          ratio(static_cast<double>(graph.memory_bytes()),
                static_cast<double>(graph.edge_count())),
          "B");
}

}  // namespace perfbench
