// Seeded chaos sweeps over the negotiation protocol: per-message drop,
// duplication, and reorder-jitter applied to every control-plane link.
// The acceptance bar:
//   - every initiated negotiation terminates (tunnel or clean failure
//     callback, exactly once);
//   - no duplicate tunnel is ever minted for one negotiation id;
//   - after a final quiescent period both agents hold zero orphaned soft
//     state;
//   - with drop <= 10%, retransmission keeps the establishment rate >= 90%
//     (vs. timeout-only failure without it).
// Observability is part of the bar: the retransmission/drop assertions read
// the event log and the metrics registry (the external surfaces a
// production operator would see), not the agents' internal structs, and every
// negotiation's causal history must reconstruct cleanly from the log.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/protocol.hpp"
#include "core/route_store.hpp"
#include "netsim/fault_injection.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "scenarios.hpp"

namespace miro::core {
namespace {

using test::Figure31Topology;

struct ChaosResult {
  std::size_t initiated = 0;
  std::size_t callbacks = 0;    ///< completions (success or clean failure)
  std::size_t established = 0;
  std::vector<std::uint64_t> negotiation_ids;
  topo::NodeId requester_node = topo::kInvalidNode;
  MiroAgent::Stats requester;
  MiroAgent::Stats responder;
  sim::BusStats bus;
  sim::FaultPlane::Counters plane;
  std::size_t leaked_upstream = 0;   ///< after the quiescent period
  std::size_t leaked_downstream = 0;
  obs::MetricsRegistry metrics;      ///< exported after the run
};

/// Runs `negotiations` staggered avoid-E requests from A to B under the
/// given fault profile, then tears everything down (faults still on) and
/// lets the system quiesce. When `log` is non-null the bus and both agents
/// record into it.
ChaosResult run_chaos(const sim::LinkFaultProfile& faults, std::uint64_t seed,
                      std::size_t negotiations, std::uint32_t max_retries,
                      obs::EventLog* log = nullptr) {
  Figure31Topology fig;
  RouteStore store(fig.graph);
  sim::Scheduler scheduler;
  Bus bus(scheduler);
  sim::FaultPlane plane(seed);
  plane.set_default_profile(faults);
  bus.set_fault_plane(&plane);
  bus.set_event_log(log);

  SoftStateConfig ss;
  ss.max_retries = max_retries;
  ss.rng_seed = seed;
  MiroAgent a(fig.a, store, bus, {}, ss);
  MiroAgent b(fig.b, store, bus, {}, ss);
  a.set_event_log(log);
  b.set_event_log(log);

  ChaosResult result;
  result.initiated = negotiations;
  result.requester_node = fig.a;
  const sim::Time stagger = 250;
  for (std::size_t i = 0; i < negotiations; ++i) {
    scheduler.at(i * stagger, [&, i]() {
      const std::uint64_t id =
          a.request(fig.b, fig.a, fig.f, fig.e, std::nullopt,
                    [&result](const NegotiationOutcome& o) {
                      ++result.callbacks;
                      if (o.established) ++result.established;
                    });
      result.negotiation_ids.push_back(id);
    });
  }
  const sim::Time sweep_end =
      static_cast<sim::Time>(negotiations) * stagger + 3000;
  scheduler.run_until(sweep_end);

  // Drain: actively tear down whatever survived, with the lossy network
  // still in place, and give soft-state expiry room to mop up the rest.
  std::vector<net::TunnelId> held;
  for (const auto& [id, up] : a.upstream_tunnels()) held.push_back(id);
  for (net::TunnelId id : held) a.teardown(id);
  scheduler.run_until(sweep_end + 2500);

  result.requester = a.stats();
  result.responder = b.stats();
  result.bus = bus.stats();
  result.plane = plane.totals();
  result.leaked_upstream = a.upstream_tunnels().size();
  result.leaked_downstream = b.tunnels().active_count();
  a.export_metrics(result.metrics, "requester");
  b.export_metrics(result.metrics, "responder");
  bus.export_metrics(result.metrics, "bus");
  return result;
}

constexpr std::size_t kNegotiations = 30;

/// Events of `kind` observed at `actor`.
std::size_t count_at(const obs::EventLog& log, obs::EventKind kind,
                     topo::NodeId actor) {
  return static_cast<std::size_t>(std::count_if(
      log.events().begin(), log.events().end(),
      [&](const obs::Event& e) { return e.kind == kind && e.actor == actor; }));
}

TEST(ChaosSweep, EveryNegotiationTerminatesAndNoSoftStateLeaks) {
  for (double drop : {0.05, 0.10, 0.20, 0.30}) {
    for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      const sim::LinkFaultProfile faults{drop, /*duplicate=*/0.10,
                                         /*jitter_max=*/25};
      obs::EventLog log;
      const ChaosResult r =
          run_chaos(faults, seed, kNegotiations, /*max_retries=*/5, &log);
      SCOPED_TRACE(::testing::Message()
                   << "drop=" << drop << " seed=" << seed);
      // Termination: the completion callback fired exactly once per request.
      EXPECT_EQ(r.callbacks, r.initiated);
      EXPECT_EQ(r.metrics.counter("requester.requests_sent").value(),
                r.initiated);
      // Idempotence: at most one tunnel ever minted per negotiation id.
      EXPECT_LE(r.metrics.counter("responder.tunnels_established").value(),
                r.initiated);
      // Quiescence: zero orphaned soft state on either side, and every
      // minted tunnel was reclaimed by exactly one of teardown or expiry.
      EXPECT_EQ(r.leaked_upstream, 0u);
      EXPECT_EQ(r.leaked_downstream, 0u);
      EXPECT_EQ(r.responder.tunnels_established,
                r.responder.tunnels_torn_down + r.responder.tunnels_expired);
      // The chaos actually bit — asserted on the logged bus drops and
      // retransmissions rather than the agents' internals.
      EXPECT_GT(log.count(obs::EventKind::BusDrop), 0u);
      EXPECT_GT(count_at(log, obs::EventKind::Retransmit, r.requester_node),
                0u);
      // The log agrees with the delivery accounting.
      EXPECT_EQ(log.count(obs::EventKind::BusDrop),
                r.bus.dropped_link_down + r.bus.dropped_faults +
                    r.bus.dropped_unattached);
      if (drop <= 0.10) {
        // Retransmission holds the establishment rate at >= 90%.
        EXPECT_GE(r.established * 10, r.initiated * 9);
      }
    }
  }
}

TEST(ChaosSweep, BusAccountingInvariantHoldsUnderDuplication) {
  // Every copy put on the wire has exactly one terminal outcome, duplicated
  // fault-plane copies included (counted via duplicates_scheduled).
  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    const sim::LinkFaultProfile faults{0.20, /*duplicate=*/0.25,
                                       /*jitter_max=*/25};
    const ChaosResult r = run_chaos(faults, seed, kNegotiations, 5);
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    EXPECT_GT(r.bus.duplicates_scheduled, 0u);
    EXPECT_EQ(r.bus.sent + r.bus.duplicates_scheduled,
              r.bus.delivered + r.bus.dropped_link_down +
                  r.bus.dropped_faults + r.bus.dropped_unattached);
  }
}

TEST(ChaosSweep, TraceReconstructsEveryNegotiationAndMatchesMetrics) {
  const sim::LinkFaultProfile faults{0.10, /*duplicate=*/0.10,
                                     /*jitter_max=*/25};
  const std::string jsonl_path =
      ::testing::TempDir() + "chaos_sweep_trace.jsonl";
  obs::EventLog log;
  const ChaosResult r =
      run_chaos(faults, /*seed=*/7, kNegotiations, /*max_retries=*/5, &log);
  ASSERT_TRUE(obs::write_jsonl_file(jsonl_path, log));

  // The JSONL file holds one line per recorded event.
  std::ifstream in(jsonl_path);
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"kind\":\""), std::string::npos);
  }
  EXPECT_EQ(lines, log.size());
  std::remove(jsonl_path.c_str());

  // Per-negotiation causal reconstruction: each history begins with the
  // request, keeps its phases ordered, and ends in exactly one of
  // established / failed.
  ASSERT_EQ(r.negotiation_ids.size(), r.initiated);
  std::size_t reconstructed_retransmits = 0;
  std::size_t established = 0;
  for (std::uint64_t id : r.negotiation_ids) {
    const obs::NegotiationTimeline timeline =
        obs::reconstruct_negotiation(log, id);
    SCOPED_TRACE(::testing::Message()
                 << "negotiation " << id << ": " << timeline.summary());
    ASSERT_FALSE(timeline.events.empty());
    EXPECT_EQ(timeline.events.front().kind,
              obs::EventKind::NegotiationRequested);
    EXPECT_NE(timeline.established, timeline.failed);
    if (timeline.established) ++established;
    // Phase order: request < offers < accept < established, by sim time.
    obs::Time requested = 0, offers = 0, accepted = 0, done = 0;
    for (const obs::Event& event : timeline.events) {
      switch (event.kind) {
        case obs::EventKind::NegotiationRequested:
          requested = event.time;
          break;
        case obs::EventKind::OffersReceived:
          if (offers == 0) offers = event.time;
          break;
        case obs::EventKind::AcceptSent:
          if (accepted == 0) accepted = event.time;
          break;
        case obs::EventKind::NegotiationEstablished:
          done = event.time;
          break;
        default: break;
      }
    }
    if (timeline.established) {
      EXPECT_LE(requested, offers);
      EXPECT_LE(offers, accepted);
      EXPECT_LE(accepted, done);
    }
    reconstructed_retransmits += timeline.retransmits;
  }
  EXPECT_EQ(established, r.established);

  // The log's retransmission story matches the metrics registry: handshake
  // retransmits are tied to negotiation ids; the remainder are blind
  // teardown re-sends (logged with a tunnel id but no negotiation id).
  const std::uint64_t metric_retransmissions =
      r.metrics.counter("requester.retransmissions").value();
  const std::size_t traced_retransmits =
      count_at(log, obs::EventKind::Retransmit, r.requester_node);
  EXPECT_EQ(traced_retransmits, metric_retransmissions);
  EXPECT_LE(reconstructed_retransmits, traced_retransmits);
  EXPECT_GT(reconstructed_retransmits, 0u);
}

TEST(ChaosSweep, DisabledTracingRecordsAndAllocatesNothing) {
  const sim::LinkFaultProfile faults{0.10, 0.10, 25};
  // A log exists but is never attached to the system under test — the
  // null-log fast path must record zero events.
  obs::EventLog idle_log;
  const ChaosResult r =
      run_chaos(faults, /*seed=*/7, kNegotiations, /*max_retries=*/5,
                /*log=*/nullptr);
  EXPECT_EQ(r.callbacks, r.initiated);
  EXPECT_EQ(idle_log.size(), 0u);
  // And the disabled run behaves identically to a logged run with the same
  // seed — logging is observation, never behavior.
  obs::EventLog log;
  const ChaosResult traced =
      run_chaos(faults, /*seed=*/7, kNegotiations, /*max_retries=*/5, &log);
  EXPECT_EQ(traced.established, r.established);
  EXPECT_EQ(traced.requester.retransmissions, r.requester.retransmissions);
  EXPECT_EQ(traced.plane.sent, r.plane.sent);
}

TEST(ChaosSweep, RetransmissionBeatsTimeoutOnlyFailureAtTenPercentDrop) {
  const sim::LinkFaultProfile faults{0.10, 0.10, 25};
  const ChaosResult with_retries =
      run_chaos(faults, /*seed=*/7, kNegotiations, /*max_retries=*/5);
  const ChaosResult without_retries =
      run_chaos(faults, /*seed=*/7, kNegotiations, /*max_retries=*/0);
  // Without retransmission a negotiation survives only if all four
  // handshake messages dodge the 10% loss (~66% per negotiation); with it,
  // effectively all of them do.
  EXPECT_GE(with_retries.established * 10, with_retries.initiated * 9);
  EXPECT_GT(with_retries.established, without_retries.established);
  // Both variants still terminate and stay leak-free — the safety
  // properties never depended on retransmission, only the success rate.
  EXPECT_EQ(without_retries.callbacks, without_retries.initiated);
  EXPECT_EQ(without_retries.leaked_upstream, 0u);
  EXPECT_EQ(without_retries.leaked_downstream, 0u);
}

TEST(ChaosSweep, IdenticalSeedsReproduceRunsBitForBit) {
  const sim::LinkFaultProfile faults{0.20, 0.10, 25};
  const ChaosResult one = run_chaos(faults, 42, kNegotiations, 5);
  const ChaosResult two = run_chaos(faults, 42, kNegotiations, 5);
  EXPECT_EQ(one.established, two.established);
  EXPECT_EQ(one.requester.retransmissions, two.requester.retransmissions);
  EXPECT_EQ(one.requester.negotiations_abandoned,
            two.requester.negotiations_abandoned);
  EXPECT_EQ(one.responder.tunnels_established,
            two.responder.tunnels_established);
  EXPECT_EQ(one.responder.duplicates_suppressed,
            two.responder.duplicates_suppressed);
  EXPECT_EQ(one.plane.sent, two.plane.sent);
  EXPECT_EQ(one.plane.dropped, two.plane.dropped);
  EXPECT_EQ(one.plane.duplicated, two.plane.duplicated);
  EXPECT_EQ(one.plane.delivered, two.plane.delivered);
}

}  // namespace
}  // namespace miro::core
