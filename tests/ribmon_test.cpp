// Route-event provenance: the event log's causal mechanics (scoping, JSONL),
// propagation-tree reconstruction, convergence observables, and — the load-
// bearing property — closed accounting of a logged churn replay against the
// BGP plane's own counters, with the logged run bit-identical to the
// unlogged one.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "churn/replayer.hpp"
#include "common/json.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/ribmon.hpp"
#include "topology/figure31.hpp"

namespace miro {
namespace {

using obs::EventKind;
using obs::EventLog;

/// A RIB event as SessionedBgpNetwork records it.
obs::EventId record(EventLog& log, obs::Time time, EventKind kind,
                    std::uint32_t actor, std::uint32_t peer,
                    std::uint32_t prefix, std::uint32_t path_len,
                    std::uint64_t path_hash = 0) {
  return log.record({.time = time,
                     .kind = kind,
                     .actor = actor,
                     .peer = peer,
                     .prefix = prefix,
                     .path_len = path_len,
                     .path_hash = path_hash});
}

using topo::Figure31;

churn::ChurnTrace mixed_trace(const Figure31& fig) {
  churn::ChurnTraceConfig config;
  config.duration = 6000;
  config.episodes = 18;
  config.seed = 7;
  return churn::generate_churn_trace(fig.graph, fig.f, config);
}

TEST(EventLog, RecordsCarryCausalParents) {
  EventLog log;
  EXPECT_EQ(log.current_cause(), 0u);

  const auto root = log.record_root(10, 3, "link_down", 4);
  EXPECT_EQ(root, 1u);
  EXPECT_EQ(log.current_cause(), 0u);  // record_root does not establish

  obs::EventId sent = 0;
  {
    EventLog::CauseScope scope(&log, root);
    EXPECT_EQ(log.current_cause(), root);
    sent = record(log, 11, EventKind::Announce, 3, 5, 9, 2);
    {
      EventLog::CauseScope nested(&log, sent);
      record(log, 21, EventKind::Deliver, 5, 3, 9, 2);
    }
    EXPECT_EQ(log.current_cause(), root);  // nesting restores
  }
  EXPECT_EQ(log.current_cause(), 0u);

  ASSERT_EQ(log.size(), 3u);
  const auto& records = log.events();
  EXPECT_EQ(records[0].parent, 0u);
  EXPECT_EQ(records[1].parent, root);
  EXPECT_EQ(records[2].parent, sent);
  EXPECT_EQ(log.count(EventKind::Announce), 1u);
  EXPECT_EQ(log.count(EventKind::Deliver), 1u);
  EXPECT_EQ(log.wire_messages(), 1u);
}

TEST(EventLog, NullLogScopeIsANoOp) {
  // Instrumented code constructs scopes unconditionally; a null log must
  // cost nothing and crash nothing.
  EventLog::CauseScope outer(nullptr, 17);
  EventLog::CauseScope inner(nullptr, 0);
}

TEST(EventLog, JsonlLinesParseAndRoundTripTheFields) {
  EventLog log;
  const auto root = log.record_root(5, 2, "session_reset", 3);
  EventLog::CauseScope scope(&log, root);
  record(log, 6, EventKind::Withdraw, 2, 3, 7, 0);
  record(log, 16, EventKind::BestChanged, 3, 0, 7, 4,
         obs::hash_path({3, 1, 0, 7}));

  std::ostringstream out;
  log.write_jsonl(out);
  std::istringstream in(out.str());
  std::string line;
  std::vector<JsonValue> parsed;
  while (std::getline(in, line)) parsed.push_back(JsonValue::parse(line));
  ASSERT_EQ(parsed.size(), 3u);

  EXPECT_EQ(parsed[0].at("kind").as_string(), "root_cause");
  EXPECT_EQ(parsed[0].at("detail").as_string(), "session_reset");
  EXPECT_FALSE(parsed[0].contains("parent"));  // roots omit the zero parent
  EXPECT_EQ(parsed[1].at("kind").as_string(), "withdraw");
  EXPECT_EQ(parsed[1].at("parent").as_number(), 1.0);
  EXPECT_EQ(parsed[2].at("kind").as_string(), "best_changed");
  EXPECT_EQ(parsed[2].at("path_len").as_number(), 4.0);
  EXPECT_TRUE(parsed[2].contains("path_hash"));
}

TEST(EventLog, HashPathNeverCollidesWithTheNoRouteSentinel) {
  EXPECT_NE(obs::hash_path({}), 0u);
  EXPECT_NE(obs::hash_path({1, 2, 3}), 0u);
  EXPECT_NE(obs::hash_path({1, 2, 3}), obs::hash_path({3, 2, 1}));
}

TEST(PropagationTrees, GroupsByRootWithDepthAndFanout) {
  EventLog log;
  const auto root = log.record_root(100, 1, "link_down", 2);
  obs::EventId a = 0, b = 0;
  {
    EventLog::CauseScope scope(&log, root);
    a = record(log, 101, EventKind::Announce, 1, 2, 9, 2);
    b = record(log, 101, EventKind::Withdraw, 1, 3, 9, 0);
    record(log, 101, EventKind::BestChanged, 1, 0, 9, 2, 55);
  }
  {
    EventLog::CauseScope scope(&log, a);
    const auto deliver = record(log, 111, EventKind::Deliver, 2, 1, 9, 2);
    EventLog::CauseScope nested(&log, deliver);
    record(log, 111, EventKind::BestChanged, 2, 0, 9, 3, 56);
  }
  {
    EventLog::CauseScope scope(&log, b);
    record(log, 111, EventKind::Loss, 3, 1, 9, 0);
  }
  const auto second = log.record_root(500, 4, "link_up", 5);
  {
    EventLog::CauseScope scope(&log, second);
    record(log, 501, EventKind::Announce, 4, 5, 9, 1);
  }

  const obs::ProvenanceSummary summary =
      build_propagation_trees(log.events());
  EXPECT_EQ(summary.orphans, 0u);
  ASSERT_EQ(summary.trees.size(), 2u);

  const obs::PropagationTree& first = summary.trees[0];
  EXPECT_EQ(first.root, root);
  EXPECT_EQ(first.root_actor, 1u);
  EXPECT_STREQ(first.root_detail, "link_down");
  EXPECT_EQ(first.nodes, 7u);
  EXPECT_EQ(first.updates, 2u);       // announce + withdraw
  EXPECT_EQ(first.delivered, 1u);
  EXPECT_EQ(first.losses, 1u);
  EXPECT_EQ(first.best_changes, 2u);
  EXPECT_EQ(first.depth, 3u);         // root -> announce -> deliver -> best
  EXPECT_EQ(first.max_fanout, 3u);    // the root's three direct children
  EXPECT_EQ(first.start, 100u);
  EXPECT_EQ(first.settled, 111u);
  EXPECT_EQ(first.convergence(), 11u);
  EXPECT_DOUBLE_EQ(first.amplification(), 2.0);

  EXPECT_EQ(summary.trees[1].nodes, 2u);
  EXPECT_EQ(summary.trees[1].depth, 1u);
  EXPECT_EQ(summary.total_updates, 3u);
  EXPECT_EQ(summary.total_best_changes, 2u);
}

TEST(PropagationTrees, UnknownParentCountsAsOrphanAndRootsItsOwnTree) {
  std::vector<obs::Event> records(2);
  records[0].id = 10;
  records[0].kind = EventKind::RootCause;
  records[1].id = 11;
  records[1].parent = 999;  // not in the stream
  records[1].kind = EventKind::Announce;
  const obs::ProvenanceSummary summary = build_propagation_trees(records);
  EXPECT_EQ(summary.orphans, 1u);
  ASSERT_EQ(summary.trees.size(), 2u);
  EXPECT_EQ(summary.trees[1].root, 11u);
  EXPECT_EQ(summary.total_updates, 1u);
}

TEST(Convergence, CountsBestChangesAndDistinctPaths) {
  EventLog log;
  const auto root = log.record_root(0, 9, "start");
  EventLog::CauseScope scope(&log, root);
  record(log, 10, EventKind::BestChanged, 1, 0, 9, 2, 100);
  record(log, 20, EventKind::BestChanged, 1, 0, 9, 3, 200);
  record(log, 30, EventKind::BestChanged, 1, 0, 9, 2, 100);  // revisit
  record(log, 40, EventKind::BestChanged, 2, 0, 9, 0, 0);    // no route

  const obs::ConvergenceReport report =
      summarize_convergence(log.events());
  EXPECT_EQ(report.total_best_changes, 4u);
  ASSERT_EQ(report.actors.size(), 2u);
  EXPECT_EQ(report.actors[0].actor, 1u);
  EXPECT_EQ(report.actors[0].best_changes, 3u);
  EXPECT_EQ(report.actors[0].distinct_paths, 2u);  // 100 revisited
  EXPECT_EQ(report.actors[1].actor, 2u);
  EXPECT_EQ(report.actors[1].distinct_paths, 1u);  // "no route" counts
  EXPECT_EQ(report.first_time, 0u);
  EXPECT_EQ(report.last_time, 40u);
  EXPECT_DOUBLE_EQ(report.churn_rate(), 100.0);  // 4 changes / 40 ticks
}

// ------------------------------------------------ monitored churn replays

TEST(RibmonReplay, ClosedAccountingAgainstTheBgpCounters) {
  const Figure31 fig;
  const churn::ChurnTrace trace = mixed_trace(fig);
  ASSERT_FALSE(trace.events.empty());

  obs::EventLog log;
  churn::ReplayConfig config;
  config.log = &log;
  const churn::ReplayResult result =
      churn::replay_churn(fig.graph, trace, config);
  ASSERT_TRUE(result.ok());

  const auto& bgp = result.bgp;
  EXPECT_EQ(log.wire_messages(),
            bgp.updates_sent + bgp.withdrawals_sent);
  EXPECT_EQ(log.count(EventKind::Deliver),
            bgp.delivered_updates + bgp.delivered_withdrawals);
  EXPECT_EQ(log.count(EventKind::Loss), bgp.lost_in_flight);
  EXPECT_EQ(log.count(EventKind::MraiCoalesce), bgp.coalesced);
  EXPECT_EQ(log.count(EventKind::DampingSuppress),
            bgp.updates_suppressed);
  // Every wire message either arrived or died with its link.
  EXPECT_EQ(bgp.updates_sent + bgp.withdrawals_sent,
            bgp.delivered_updates + bgp.delivered_withdrawals +
                bgp.lost_in_flight);

  // Every record lands in exactly one tree, rooted at start() or at a trace
  // event; the per-tree sums therefore cover the stream totals exactly.
  const obs::ProvenanceSummary summary =
      build_propagation_trees(log.events());
  EXPECT_EQ(summary.orphans, 0u);
  EXPECT_EQ(summary.trees.size(), trace.events.size() + 1);
  EXPECT_EQ(summary.total_updates, bgp.updates_sent + bgp.withdrawals_sent);
  EXPECT_EQ(summary.total_delivered,
            bgp.delivered_updates + bgp.delivered_withdrawals);
  EXPECT_EQ(summary.total_losses, bgp.lost_in_flight);
  std::size_t nodes = 0;
  for (const obs::PropagationTree& tree : summary.trees) nodes += tree.nodes;
  EXPECT_EQ(nodes, log.size());
}

TEST(RibmonReplay, MonitoredRunIsBitIdenticalToUnmonitored) {
  const Figure31 fig;
  const churn::ChurnTrace trace = mixed_trace(fig);

  churn::ReplayConfig plain;
  plain.defense.mrai = 60;
  plain.defense.damping_enabled = true;
  const churn::ReplayResult unmonitored =
      churn::replay_churn(fig.graph, trace, plain);

  obs::EventLog log;
  churn::ReplayConfig instrumented = plain;
  instrumented.log = &log;
  const churn::ReplayResult monitored =
      churn::replay_churn(fig.graph, trace, instrumented);
  EXPECT_GT(log.size(), 0u);

  EXPECT_EQ(monitored.bgp.updates_sent, unmonitored.bgp.updates_sent);
  EXPECT_EQ(monitored.bgp.withdrawals_sent,
            unmonitored.bgp.withdrawals_sent);
  EXPECT_EQ(monitored.bgp.selections, unmonitored.bgp.selections);
  EXPECT_EQ(monitored.bgp.coalesced, unmonitored.bgp.coalesced);
  EXPECT_EQ(monitored.bgp.updates_suppressed,
            unmonitored.bgp.updates_suppressed);
  EXPECT_EQ(monitored.bgp.routes_damped, unmonitored.bgp.routes_damped);
  EXPECT_EQ(monitored.final_time, unmonitored.final_time);
  EXPECT_EQ(monitored.scheduler_events, unmonitored.scheduler_events);
  ASSERT_EQ(monitored.convergence.size(), unmonitored.convergence.size());
  for (std::size_t i = 0; i < monitored.convergence.size(); ++i) {
    EXPECT_EQ(monitored.convergence[i].start,
              unmonitored.convergence[i].start);
    EXPECT_EQ(monitored.convergence[i].settled,
              unmonitored.convergence[i].settled);
    EXPECT_EQ(monitored.convergence[i].messages,
              unmonitored.convergence[i].messages);
  }
}

TEST(RibmonReplay, DefensesEmitSuppressRecordsWithProvenance) {
  const Figure31 fig;
  // The persistent flapper: damping must engage and absorb updates.
  const churn::ChurnTrace trace = churn::make_persistent_flap_trace(
      fig.graph, fig.f, fig.e, fig.f, /*flaps=*/20, /*period=*/100);

  obs::EventLog log;
  churn::ReplayConfig config;
  config.defense.mrai = 60;
  config.defense.damping_enabled = true;
  config.log = &log;
  const churn::ReplayResult result =
      churn::replay_churn(fig.graph, trace, config);

  EXPECT_GT(result.bgp.updates_suppressed, 0u);
  EXPECT_EQ(log.count(EventKind::DampingSuppress),
            result.bgp.updates_suppressed);
  // Suppress records chain back to a root cause like everything else.
  const obs::ProvenanceSummary summary =
      build_propagation_trees(log.events());
  EXPECT_EQ(summary.orphans, 0u);
  EXPECT_EQ(summary.total_suppressed, result.bgp.updates_suppressed);
}

TEST(RibmonReplay, ExportedMetricsAndTraceEvents) {
  const Figure31 fig;
  const churn::ChurnTrace trace = mixed_trace(fig);
  obs::EventLog log;
  churn::ReplayConfig config;
  config.log = &log;
  const churn::ReplayResult result =
      churn::replay_churn(fig.graph, trace, config);

  obs::MetricsRegistry registry;
  obs::export_ribmon_metrics(log, registry);
  EXPECT_EQ(registry.counter("ribmon.records").value(), log.size());
  EXPECT_EQ(registry.counter("ribmon.updates").value(),
            result.bgp.updates_sent + result.bgp.withdrawals_sent);
  EXPECT_EQ(registry.counter("ribmon.roots").value(),
            trace.events.size() + 1);
  EXPECT_EQ(registry.counter("ribmon.orphans").value(), 0u);
  EXPECT_GT(registry.histogram("ribmon.convergence_ticks").count(), 0u);
  EXPECT_GT(registry.histogram("ribmon.amplification").count(), 0u);
  EXPECT_GT(registry.histogram("ribmon.path_exploration").count(), 0u);
  EXPECT_GT(registry.gauge("ribmon.churn_rate").value(), 0.0);

  // The Perfetto rendering keeps one instant event per event, with its id
  // and causal parent in the args so tracks cross-reference the JSONL.
  std::ostringstream chrome;
  obs::write_chrome_trace(chrome, nullptr, log.events());
  const JsonValue doc = JsonValue::parse(chrome.str());
  std::vector<const JsonValue*> instants;
  for (std::size_t i = 0; i < doc.at("traceEvents").size(); ++i) {
    const JsonValue& event = doc.at("traceEvents").at(i);
    if (event.at("ph").as_string() == "i") instants.push_back(&event);
  }
  ASSERT_EQ(instants.size(), log.size());
  EXPECT_EQ(instants.front()->at("name").as_string(), "root_cause");
  EXPECT_EQ(instants.front()->at("args").at("detail").as_string(), "start");
  for (std::size_t i = 0; i < instants.size(); ++i) {
    const JsonValue& args = instants[i]->at("args");
    EXPECT_EQ(args.at("id").as_number(),
              static_cast<double>(log.events()[i].id));
    EXPECT_EQ(args.contains("parent"), log.events()[i].parent != 0);
  }
}

}  // namespace
}  // namespace miro
