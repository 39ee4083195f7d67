#include "churn/replayer.hpp"

#include <limits>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/memstats.hpp"

namespace miro::churn {

namespace {

/// Runaway guard over the whole replay (damping misconfiguration could
/// otherwise oscillate forever).
constexpr std::size_t kMaxSchedulerEvents = 20'000'000;
/// Checkpoints fire every interval up to the last trace event and on
/// through the drain, so a trace, or a protocol timer left to drain (an
/// MRAI or damping delay), lying more than this many checkpoints out is
/// refused (one hostile time stamp would otherwise keep the checker busy
/// for years).
constexpr sim::Time kMaxCheckpoints = 1'000'000;

void apply_event(bgp::SessionedBgpNetwork& network, InvariantChecker& checker,
                 const ChurnEvent& event) {
  switch (event.kind) {
    case ChurnEventKind::LinkDown:
      network.fail_link(event.a, event.b);
      checker.on_session_flush(event.a, event.b);
      break;
    case ChurnEventKind::LinkUp:
      network.restore_link(event.a, event.b);
      break;
    case ChurnEventKind::SessionReset:
      network.fail_link(event.a, event.b);
      checker.on_session_flush(event.a, event.b);
      network.restore_link(event.a, event.b);
      break;
    case ChurnEventKind::PrefixWithdraw:
      network.withdraw_prefix();
      break;
    case ChurnEventKind::PrefixAnnounce:
      network.announce_prefix();
      break;
    case ChurnEventKind::HijackStart:
      network.start_hijack(event.a);
      break;
    case ChurnEventKind::HijackEnd:
      network.end_hijack(event.a);
      break;
  }
}

}  // namespace

ReplayResult replay_churn(const topo::AsGraph& graph, const ChurnTrace& trace,
                          const ReplayConfig& config) {
  trace.validate(graph);
  if (config.checkpoint_interval != 0 && !trace.events.empty() &&
      trace.events.back().time / config.checkpoint_interval >
          kMaxCheckpoints) {
    throw Error("replay_churn: the trace spans more than " +
                std::to_string(kMaxCheckpoints) + " checkpoints");
  }

  sim::Scheduler scheduler;
  bgp::SessionedBgpNetwork network(graph, trace.destination, scheduler,
                                   config.defense);
  network.set_event_log(config.log);
  ReplayResult result;

  core::TunnelMonitor monitor;
  for (const auto& tunnel : config.tunnels) monitor.watch(tunnel);
  monitor.set_event_log(config.log, [&scheduler] { return scheduler.now(); });
  // The monitor reads best paths materialized into one reused buffer.
  const std::optional<std::vector<NodeId>> unreachable;
  std::optional<std::vector<NodeId>> route;
  std::vector<NodeId>& route_path = route.emplace();
  if (!config.tunnels.empty()) {
    network.set_observer([&](NodeId node, bgp::PathId best) {
      if (best != bgp::kNullPath)
        network.paths().materialize_into(best, route_path);
      result.tunnels_torn +=
          monitor
              .on_downstream_change(node, trace.destination,
                                    best == bgp::kNullPath ? unreachable
                                                           : route)
              .size();
    });
  }
  InvariantChecker checker(network, config.tunnel_hold_down,
                           config.tunnels.empty() ? nullptr : &monitor);

  constexpr sim::Time kNever = std::numeric_limits<sim::Time>::max();
  sim::Time next_checkpoint =
      config.checkpoint_interval == 0 ? kNever : config.checkpoint_interval;

  // Burst accounting. The run opens with the initial-convergence burst
  // (start(), no trace witness); every later burst opens with a trace event.
  bool burst_open = true;
  ConvergenceSample sample;
  sample.first_event = InvariantChecker::kNoEvent;
  std::size_t messages_at_start = 0;
  const auto messages_now = [&] {
    return network.stats().updates_sent + network.stats().withdrawals_sent;
  };

  const auto close_burst_if_quiet = [&] {
    if (!burst_open || !network.transit_quiet()) return;
    burst_open = false;
    if (sample.first_event == InvariantChecker::kNoEvent) {
      result.initial_convergence = scheduler.now();
      return;
    }
    sample.settled = scheduler.now();
    sample.messages = messages_now() - messages_at_start;
    result.convergence.push_back(sample);
  };

  // Runs the scheduler up to `target`, interleaving protocol events with
  // checkpoint marks in time order (events at a tick fire before the
  // checkpoint that inspects that tick) and watching for quiescence after
  // every protocol step so settle times are exact.
  const auto drive_to = [&](sim::Time target) {
    for (;;) {
      const std::optional<sim::Time> next = scheduler.next_event_within(target);
      const bool checkpoint_due = next_checkpoint <= target;
      if (next && (!checkpoint_due || *next <= next_checkpoint)) {
        result.scheduler_events += scheduler.run_until(*next);
        if (result.scheduler_events > kMaxSchedulerEvents) {
          throw Error("replay_churn: scheduler event budget exhausted "
                      "(runaway churn reaction?)");
        }
        close_burst_if_quiet();
        continue;
      }
      if (checkpoint_due) {
        result.scheduler_events += scheduler.run_until(next_checkpoint);
        checker.check(scheduler.now());
        // Refresh the RIB accounts at checkpoint cadence so their peaks
        // track churn-driven growth, not just the drained end state. A
        // capacity walk of replay-determined containers — reads only.
        if (obs::MemoryRegistry* mem = obs::memory()) {
          mem->account("bgp/rib").set_current(
              network.rib_footprint().rib_bytes);
          mem->account("churn/checker").set_current(checker.memory_bytes());
        }
        // Saturates: a wrapped sum would fall back below the trace's end
        // and fire checkpoints at nearly every tick.
        next_checkpoint = config.checkpoint_interval > kNever - next_checkpoint
                              ? kNever
                              : next_checkpoint + config.checkpoint_interval;
        continue;
      }
      result.scheduler_events += scheduler.run_until(target);
      return;
    }
  };

  network.start();

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const ChurnEvent& event = trace.events[i];
    drive_to(event.time);
    checker.note_event(i);
    if (!burst_open) {
      burst_open = true;
      sample = {};
      sample.first_event = i;
      sample.start = event.time;
      messages_at_start = messages_now();
    }
    sample.last_event = i;
    obs::EventId root = 0;
    if (config.log != nullptr) {
      // Every trace event roots its own propagation tree; prefix events
      // happen at the origin (their a/b slots carry kInvalidNode).
      const bool at_origin = event.a == topo::kInvalidNode;
      root = config.log->record_root(
          scheduler.now(), at_origin ? trace.destination : event.a,
          to_string(event.kind),
          event.b == topo::kInvalidNode ? 0 : event.b);
    }
    obs::EventLog::CauseScope scope(config.log, root);
    apply_event(network, checker, event);
  }

  // Drain everything left (reconvergence, MRAI windows, damping reuse
  // timers), still firing interim checkpoints while events remain.
  while (const std::optional<sim::Time> next =
             scheduler.next_event_within(kNever)) {
    if (config.checkpoint_interval != 0 &&
        *next / config.checkpoint_interval > kMaxCheckpoints) {
      throw Error("replay_churn: a protocol timer at tick " +
                  std::to_string(*next) + " lies more than " +
                  std::to_string(kMaxCheckpoints) + " checkpoints out");
    }
    drive_to(*next);
  }
  close_burst_if_quiet();
  checker.final_check(scheduler.now());

  result.bgp = network.stats();
  result.violations = checker.violations();
  result.checker = checker.stats();
  result.final_time = scheduler.now();
  result.rib = network.rib_footprint();
  result.checker_bytes = checker.memory_bytes();
  if (obs::MemoryRegistry* mem = obs::memory()) {
    mem->account("bgp/rib").set_current(result.rib.rib_bytes);
    mem->account("churn/checker").set_current(result.checker_bytes);
  }
  return result;
}

std::array<AccountingRow, 7> closed_accounting(
    const ReplayResult& result, const obs::EventLog& log,
    const obs::ProvenanceSummary& provenance) {
  const auto& bgp = result.bgp;
  const auto wire =
      static_cast<std::uint64_t>(bgp.updates_sent + bgp.withdrawals_sent);
  return {{
      {"wire_records == updates_sent + withdrawals_sent",
       log.wire_messages(), wire},
      {"tree update sums == updates_sent + withdrawals_sent",
       static_cast<std::uint64_t>(provenance.total_updates), wire},
      {"deliver records == delivered updates + withdrawals",
       log.count(obs::EventKind::Deliver),
       static_cast<std::uint64_t>(bgp.delivered_updates +
                                  bgp.delivered_withdrawals)},
      {"loss records == lost_in_flight", log.count(obs::EventKind::Loss),
       static_cast<std::uint64_t>(bgp.lost_in_flight)},
      {"coalesce records == coalesced",
       log.count(obs::EventKind::MraiCoalesce),
       static_cast<std::uint64_t>(bgp.coalesced)},
      {"suppress records == updates_suppressed",
       log.count(obs::EventKind::DampingSuppress),
       static_cast<std::uint64_t>(bgp.updates_suppressed)},
      {"orphan records == 0", static_cast<std::uint64_t>(provenance.orphans),
       0},
  }};
}

}  // namespace miro::churn
