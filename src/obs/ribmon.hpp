// Route-event provenance: propagation trees and convergence observables over
// the RIB events of the one event log (obs/event_log.hpp).
//
// PR 6's churn lab measures burst convergence and suppression ratios as
// opaque aggregates; this layer answers *why* the control plane sent each
// update. A production router exports the same observables over BMP route
// monitoring — here every RIB-changing occurrence the sessioned BGP plane
// records carries the causal parent id of the delivered message or external
// root cause (churn-trace event, start()) that triggered it. Chaining
// parents yields per-root-cause propagation trees — depth, fan-out, and
// amplification (wire messages per root cause) — plus per-prefix
// convergence observables (convergence time, path-exploration count,
// RIB-churn rate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace miro::obs {

// -------------------------------------------- propagation-graph analysis

/// One per-root-cause causal tree: the root event plus everything whose
/// parent chain reaches it.
struct PropagationTree {
  EventId root = 0;
  std::uint32_t root_actor = 0;
  const char* root_detail = "";    ///< root-cause name ("link_down", ...)
  EventKind root_kind = EventKind::RootCause;
  Time start = 0;                  ///< root event's sim time
  Time settled = 0;                ///< sim time of the last event in the tree
  std::size_t nodes = 0;           ///< events in the tree, root included
  std::size_t updates = 0;         ///< wire messages (announce/implicit/withdraw)
  std::size_t delivered = 0;       ///< Deliver events
  std::size_t losses = 0;          ///< Loss events
  std::size_t suppressed = 0;      ///< DampingSuppress events
  std::size_t coalesced = 0;       ///< MraiCoalesce events
  std::size_t best_changes = 0;    ///< BestChanged events
  std::size_t depth = 0;           ///< max causal depth (root = 0)
  std::size_t max_fanout = 0;      ///< max children under any one event

  /// Convergence time of this root cause: first event to last reaction.
  Time convergence() const { return settled - start; }
  /// Wire messages emitted per root cause — the amplification factor.
  double amplification() const { return static_cast<double>(updates); }
};

/// The reconstructed propagation graph plus closed-accounting totals: every
/// event lands in exactly one tree, so the per-tree sums equal the stream
/// totals by construction; `orphans` counts events whose parent id is
/// unknown (always 0 for a stream produced by one EventLog).
struct ProvenanceSummary {
  std::vector<PropagationTree> trees;  ///< in root-event order
  std::size_t orphans = 0;
  std::size_t total_updates = 0;
  std::size_t total_delivered = 0;
  std::size_t total_losses = 0;
  std::size_t total_suppressed = 0;
  std::size_t total_coalesced = 0;
  std::size_t total_best_changes = 0;
};

/// Groups `events` into per-root-cause trees. Events with parent 0 (or an
/// unknown parent, counted as an orphan) root their own tree; ids are
/// monotonic so parents always precede children in the stream.
ProvenanceSummary build_propagation_trees(const std::vector<Event>& events);

// -------------------------------------------- convergence observables

/// Per-prefix convergence observables distilled from one event stream.
struct ConvergenceReport {
  struct PerActor {
    std::uint32_t actor = 0;
    std::size_t best_changes = 0;   ///< times the best route moved
    std::size_t distinct_paths = 0; ///< path-exploration count (incl. "none")
  };
  std::vector<PerActor> actors;     ///< sorted by actor id
  std::size_t total_best_changes = 0;
  Time first_time = 0;
  Time last_time = 0;
  /// RIB-churn rate: best-route changes per 1000 sim ticks over the span.
  double churn_rate() const {
    return last_time > first_time
               ? static_cast<double>(total_best_changes) * 1000.0 /
                     static_cast<double>(last_time - first_time)
               : 0.0;
  }
};

ConvergenceReport summarize_convergence(const std::vector<Event>& events);

/// Exports the propagation-tree and convergence observables into `registry`
/// under `<prefix>.`: counters (records = events in the log, updates,
/// delivered, losses, suppressed, coalesced, roots, orphans), histograms
/// (convergence_ticks, amplification, tree_depth, fanout, path_exploration),
/// and the churn_rate gauge. Safe to call repeatedly; counters are
/// snapshot-overwritten.
void export_ribmon_metrics(const EventLog& log, MetricsRegistry& registry,
                           const std::string& prefix = "ribmon");

}  // namespace miro::obs
