#include "obs/ribmon.hpp"

#include <algorithm>
#include <unordered_map>

namespace miro::obs {

// ------------------------------------------------------- propagation trees

ProvenanceSummary build_propagation_trees(const std::vector<Event>& events) {
  ProvenanceSummary summary;
  struct Placement {
    std::size_t tree = 0;
    std::size_t depth = 0;
    std::size_t children = 0;
  };
  std::unordered_map<EventId, Placement> placed;
  placed.reserve(events.size());

  for (const Event& event : events) {
    std::size_t tree_index = 0;
    std::size_t depth = 0;
    const auto parent_it = event.parent == 0
                               ? placed.end()
                               : placed.find(event.parent);
    if (event.parent != 0 && parent_it == placed.end()) ++summary.orphans;
    if (event.parent == 0 || parent_it == placed.end()) {
      tree_index = summary.trees.size();
      PropagationTree tree;
      tree.root = event.id;
      tree.root_actor = event.actor;
      tree.root_detail = event.detail;
      tree.root_kind = event.kind;
      tree.start = event.time;
      tree.settled = event.time;
      summary.trees.push_back(tree);
    } else {
      tree_index = parent_it->second.tree;
      depth = parent_it->second.depth + 1;
      PropagationTree& tree = summary.trees[tree_index];
      const std::size_t fanout = ++parent_it->second.children;
      tree.max_fanout = std::max(tree.max_fanout, fanout);
    }
    placed.emplace(event.id, Placement{tree_index, depth, 0});

    PropagationTree& tree = summary.trees[tree_index];
    ++tree.nodes;
    tree.settled = std::max(tree.settled, event.time);
    tree.depth = std::max(tree.depth, depth);
    switch (event.kind) {
      case EventKind::Announce:
      case EventKind::ImplicitWithdraw:
      case EventKind::Withdraw:
        ++tree.updates;
        ++summary.total_updates;
        break;
      case EventKind::Deliver:
        ++tree.delivered;
        ++summary.total_delivered;
        break;
      case EventKind::Loss:
        ++tree.losses;
        ++summary.total_losses;
        break;
      case EventKind::DampingSuppress:
        ++tree.suppressed;
        ++summary.total_suppressed;
        break;
      case EventKind::MraiCoalesce:
        ++tree.coalesced;
        ++summary.total_coalesced;
        break;
      case EventKind::BestChanged:
        ++tree.best_changes;
        ++summary.total_best_changes;
        break;
      default:
        break;  // roots and control-plane events only count as nodes
    }
  }
  return summary;
}

// -------------------------------------------------- convergence observables

ConvergenceReport summarize_convergence(const std::vector<Event>& events) {
  ConvergenceReport report;
  if (events.empty()) return report;
  report.first_time = events.front().time;
  report.last_time = events.back().time;

  struct ActorState {
    std::size_t best_changes = 0;
    std::vector<std::uint64_t> hashes;  // distinct best-path fingerprints
  };
  std::unordered_map<std::uint32_t, ActorState> actors;
  for (const Event& event : events) {
    if (event.kind != EventKind::BestChanged) continue;
    ActorState& state = actors[event.actor];
    ++state.best_changes;
    ++report.total_best_changes;
    if (std::find(state.hashes.begin(), state.hashes.end(),
                  event.path_hash) == state.hashes.end()) {
      state.hashes.push_back(event.path_hash);
    }
  }
  report.actors.reserve(actors.size());
  for (const auto& [actor, state] : actors) {
    report.actors.push_back({actor, state.best_changes, state.hashes.size()});
  }
  std::sort(report.actors.begin(), report.actors.end(),
            [](const ConvergenceReport::PerActor& a,
               const ConvergenceReport::PerActor& b) {
              return a.actor < b.actor;
            });
  return report;
}

void export_ribmon_metrics(const EventLog& log, MetricsRegistry& registry,
                           const std::string& prefix) {
  const ProvenanceSummary summary = build_propagation_trees(log.events());
  const ConvergenceReport convergence = summarize_convergence(log.events());

  registry.counter(prefix + ".records").set(log.size());
  registry.counter(prefix + ".updates").set(summary.total_updates);
  registry.counter(prefix + ".delivered").set(summary.total_delivered);
  registry.counter(prefix + ".losses").set(summary.total_losses);
  registry.counter(prefix + ".suppressed").set(summary.total_suppressed);
  registry.counter(prefix + ".coalesced").set(summary.total_coalesced);
  registry.counter(prefix + ".best_changes").set(summary.total_best_changes);
  registry.counter(prefix + ".roots").set(summary.trees.size());
  registry.counter(prefix + ".orphans").set(summary.orphans);
  registry.gauge(prefix + ".churn_rate").set(convergence.churn_rate());

  Histogram& conv = registry.histogram(prefix + ".convergence_ticks");
  Histogram& amp = registry.histogram(prefix + ".amplification");
  Histogram& depth = registry.histogram(prefix + ".tree_depth");
  Histogram& fanout = registry.histogram(prefix + ".fanout");
  for (const PropagationTree& tree : summary.trees) {
    conv.observe(static_cast<double>(tree.convergence()));
    amp.observe(tree.amplification());
    depth.observe(static_cast<double>(tree.depth));
    fanout.observe(static_cast<double>(tree.max_fanout));
  }
  Histogram& exploration = registry.histogram(prefix + ".path_exploration");
  for (const ConvergenceReport::PerActor& actor : convergence.actors) {
    exploration.observe(static_cast<double>(actor.distinct_paths));
  }
}

}  // namespace miro::obs
