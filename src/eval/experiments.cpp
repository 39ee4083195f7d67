#include "eval/experiments.hpp"

#include <algorithm>
#include <deque>
#include <memory>

#include "common/error.hpp"
#include "common/memtrack.hpp"
#include "common/parallel.hpp"
#include "obs/memstats.hpp"
#include "obs/profile.hpp"

namespace miro::eval {

ExperimentPlan::ExperimentPlan(const EvalConfig& config) : config_(config) {
  obs::ScopedSpan span(obs::profile(), "eval/plan", "eval");
  topo::GeneratorParams params = topo::profile(config.profile, config.scale);
  graph_ = std::make_unique<AsGraph>(topo::generate(params));
  solver_ = std::make_unique<StableRouteSolver>(*graph_);

  Rng rng(config.seed);
  const std::size_t n = graph_->node_count();
  const std::size_t samples = std::min(config.destination_samples, n);
  for (std::size_t index : rng.sample_indices(n, samples))
    destinations_.push_back(static_cast<NodeId>(index));
  std::sort(destinations_.begin(), destinations_.end());
  // Every per-destination solve is independent; fan out and collect the
  // trees in destination order so the plan is identical at any thread count.
  std::vector<std::unique_ptr<RoutingTree>> solved(destinations_.size());
  par::parallel_for(
      destinations_.size(),
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        for (std::size_t i = begin; i != end; ++i) {
          solved[i] =
              std::make_unique<RoutingTree>(solver_->solve(destinations_[i]));
        }
      });
  trees_.reserve(destinations_.size());
  for (auto& tree : solved) trees_.push_back(std::move(*tree));

  // Walk-account the plan's two memory-dominant owners. A capacity walk of
  // identically-constructed containers, so the accounts (and the bench rows
  // derived from them) are bit-identical at any --threads count.
  if (obs::MemoryRegistry* mem = obs::memory()) {
    mem->account("topology/graph").set_current(graph_->memory_bytes());
    mem->account("eval/trees").set_current(trees_memory_bytes());
  }
}

std::uint64_t ExperimentPlan::trees_memory_bytes() const {
  std::uint64_t bytes = vector_bytes(trees_) + vector_bytes(destinations_);
  for (const RoutingTree& tree : trees_) bytes += tree.memory_bytes();
  return bytes;
}

std::uint64_t ExperimentPlan::route_count() const {
  std::uint64_t routes = 0;
  for (const RoutingTree& tree : trees_) routes += tree.reachable_count();
  return routes;
}

const RoutingTree& ExperimentPlan::tree_toward(
    NodeId destination, std::optional<RoutingTree>& local) const {
  const auto it = std::lower_bound(destinations_.begin(), destinations_.end(),
                                   destination);
  if (it != destinations_.end() && *it == destination)
    return trees_[static_cast<std::size_t>(it - destinations_.begin())];
  return local.emplace(solver_->solve(destination));
}

std::size_t InboundView::ingress_links() const {
  return static_cast<std::size_t>(std::count_if(
      ingress.begin(), ingress.end(), [](std::size_t n) { return n > 0; }));
}

InboundView measure_inbound(const AsGraph& graph, const RoutingTree& tree) {
  InboundView view;
  view.ingress.assign(graph.node_count(), 0);
  view.traverse.assign(graph.node_count(), 0);
  for (NodeId source = 0; source < graph.node_count(); ++source) {
    if (source == tree.destination() || !tree.reachable(source)) continue;
    ++view.total;
    // Walk the next-hop chain once, crediting every transit AS and the final
    // ingress neighbor.
    NodeId current = source;
    for (NodeId next = tree.next_hop(current); next != tree.destination();
         next = tree.next_hop(current)) {
      ++view.traverse[next];
      current = next;
    }
    ++view.ingress[current];
  }
  return view;
}

std::vector<NodeId> power_nodes(const InboundView& view, std::size_t count) {
  std::vector<NodeId> nodes;
  for (NodeId node = 0; node < view.traverse.size(); ++node)
    if (view.traverse[node] > 0) nodes.push_back(node);
  std::sort(nodes.begin(), nodes.end(), [&view](NodeId a, NodeId b) {
    if (view.traverse[a] != view.traverse[b])
      return view.traverse[a] > view.traverse[b];
    return a < b;
  });
  if (nodes.size() > count) nodes.resize(count);
  return nodes;
}

std::vector<NodeId> sample_multi_homed_stubs(const AsGraph& graph,
                                             std::uint64_t seed,
                                             std::size_t count) {
  std::vector<NodeId> stubs;
  for (NodeId node = 0; node < graph.node_count(); ++node)
    if (graph.is_multi_homed_stub(node)) stubs.push_back(node);
  Rng rng(seed);
  rng.shuffle(stubs);
  if (stubs.size() > count) stubs.resize(count);
  return stubs;
}

const std::vector<SampledPair>& ExperimentPlan::sample_pairs(
    std::size_t per_destination, std::uint64_t salt) const {
  const auto key = std::make_pair(per_destination, salt);
  const auto cached = pair_cache_.find(key);
  if (cached != pair_cache_.end()) return cached->second;

  std::vector<SampledPair> pairs;
  Rng rng(config_.seed ^ (salt + 0x5051));
  const std::size_t n = graph_->node_count();
  for (std::size_t t = 0; t < trees_.size(); ++t) {
    const RoutingTree& tree = trees_[t];
    const std::size_t want = std::min(per_destination, n - 1);
    // Oversample to absorb the destination itself and unreachable sources.
    const std::size_t draw = std::min(n, want * 2 + 8);
    std::size_t taken = 0;
    for (std::size_t index : rng.sample_indices(n, draw)) {
      if (taken >= want) break;
      auto source = static_cast<NodeId>(index);
      if (source == tree.destination() || !tree.reachable(source)) continue;
      pairs.push_back({source, tree.destination(), t});
      ++taken;
    }
  }
  return pair_cache_.emplace(key, std::move(pairs)).first->second;
}

const std::vector<SampledTuple>& ExperimentPlan::sample_tuples(
    std::size_t per_destination, std::uint64_t salt) const {
  const auto key = std::make_pair(per_destination, salt);
  const auto cached = tuple_cache_.find(key);
  if (cached != tuple_cache_.end()) return cached->second;

  std::vector<SampledTuple> tuples;
  for (const SampledPair& pair : sample_pairs(per_destination, salt)) {
    const RoutingTree& tree = trees_[pair.tree_index];
    const std::vector<NodeId> path = tree.path_of(pair.source);
    // Intermediate ASes only; skip any AS adjacent to the source — "an AS
    // is not likely to distrust one of its own immediate neighbors" — and
    // the destination itself.
    for (std::size_t i = 2; i + 1 < path.size(); ++i) {
      if (graph_->has_edge(pair.source, path[i])) continue;
      tuples.push_back({pair.source, pair.destination, path[i],
                        pair.tree_index});
    }
  }
  return tuple_cache_.emplace(key, std::move(tuples)).first->second;
}

void ExperimentPlan::precompute_avoidance(
    const std::vector<SampledTuple>& /*tuples*/) const {
  if (avoidance_) return;
  obs::ScopedSpan span(obs::profile(), "eval/avoidance_index", "eval");
  avoidance_.emplace(*graph_);
  if (obs::MemoryRegistry* mem = obs::memory())
    mem->account("eval/avoidance_index")
        .set_current(avoidance_->memory_bytes());
}

AvoidanceView ExperimentPlan::avoid_reachable(NodeId destination,
                                              NodeId avoid) const {
  require(avoidance_.has_value(),
          "avoid_reachable: no index yet (call precompute_avoidance)");
  return AvoidanceView(*avoidance_, destination, avoid);
}

bool reachable_avoiding(const AsGraph& graph, NodeId source,
                        NodeId destination, NodeId avoid) {
  const std::size_t n = graph.node_count();
  require(source < n && destination < n && avoid < n,
          "reachable_avoiding: node id out of range");
  if (source == avoid || destination == avoid) return false;
  if (source == destination) return true;
  std::vector<char> visited(n, 0);
  std::deque<NodeId> frontier;
  visited[source] = 1;
  visited[avoid] = 1;  // never enter the avoided AS
  frontier.push_back(source);
  while (!frontier.empty()) {
    const NodeId node = frontier.front();
    frontier.pop_front();
    for (const topo::Neighbor& n : graph.neighbors(node)) {
      if (visited[n.node]) continue;
      if (n.node == destination) return true;
      visited[n.node] = 1;
      frontier.push_back(n.node);
    }
  }
  return false;
}

}  // namespace miro::eval
