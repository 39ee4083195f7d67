#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "netsim/fault_injection.hpp"
#include "netsim/message_bus.hpp"
#include "netsim/scheduler.hpp"

namespace miro::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.at(30, [&] { order.push_back(3); });
  scheduler.at(10, [&] { order.push_back(1); });
  scheduler.at(20, [&] { order.push_back(2); });
  scheduler.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), 30u);
}

TEST(Scheduler, SameTimestampIsFifo) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    scheduler.at(7, [&order, i] { order.push_back(i); });
  scheduler.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, AfterIsRelative) {
  Scheduler scheduler;
  Time fired_at = 0;
  scheduler.at(100, [&] {
    scheduler.after(25, [&] { fired_at = scheduler.now(); });
  });
  scheduler.run_all();
  EXPECT_EQ(fired_at, 125u);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler scheduler;
  bool fired = false;
  auto token = scheduler.at(10, [&] { fired = true; });
  EXPECT_TRUE(token.pending());
  token.cancel();
  EXPECT_FALSE(token.pending());
  scheduler.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelAfterFireIsHarmless) {
  Scheduler scheduler;
  auto token = scheduler.at(10, [] {});
  scheduler.run_all();
  EXPECT_FALSE(token.pending());
  token.cancel();  // no-op
}

TEST(Scheduler, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.at(10, [&] { order.push_back(1); });
  scheduler.at(20, [&] { order.push_back(2); });
  scheduler.at(30, [&] { order.push_back(3); });
  EXPECT_EQ(scheduler.run_until(20), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(scheduler.now(), 20u);
  EXPECT_EQ(scheduler.pending_events(), 1u);
}

TEST(Scheduler, SchedulingInThePastThrows) {
  Scheduler scheduler;
  scheduler.at(50, [] {});
  scheduler.run_all();
  EXPECT_THROW(scheduler.at(10, [] {}), Error);
}

TEST(Scheduler, RunawayGuardThrows) {
  Scheduler scheduler;
  // A self-rescheduling event never drains.
  std::function<void()> loop = [&] { scheduler.after(1, loop); };
  scheduler.after(1, loop);
  EXPECT_THROW(scheduler.run_all(1000), Error);
}

// Regression: with a cancelled event at the head of the queue, run_until(t)
// used to skip past it and fire the *next* live event even when that event
// was scheduled after t — overshooting both the boundary and the clock.
TEST(Scheduler, RunUntilDoesNotFireEventsBeyondBoundaryPastCancelledHead) {
  Scheduler scheduler;
  bool fired = false;
  auto cancelled = scheduler.at(5, [] { FAIL() << "cancelled event fired"; });
  scheduler.at(100, [&] { fired = true; });
  cancelled.cancel();
  EXPECT_EQ(scheduler.run_until(10), 0u);
  EXPECT_FALSE(fired);
  EXPECT_EQ(scheduler.now(), 10u);
  EXPECT_EQ(scheduler.pending_events(), 1u);  // live@100 still queued
  // The live event fires once the boundary actually reaches it.
  EXPECT_EQ(scheduler.run_until(100), 1u);
  EXPECT_TRUE(fired);
}

// A cancelled event scheduled beyond the boundary must stay queued; popping
// it would drag now_ past t.
TEST(Scheduler, RunUntilLeavesCancelledEventsBeyondBoundaryQueued) {
  Scheduler scheduler;
  auto token = scheduler.at(100, [] { FAIL() << "cancelled event fired"; });
  token.cancel();
  EXPECT_EQ(scheduler.run_until(10), 0u);
  EXPECT_EQ(scheduler.now(), 10u);
  EXPECT_EQ(scheduler.pending_events(), 1u);
  // Draining past it discards it without firing and without counting it.
  EXPECT_EQ(scheduler.run_until(200), 0u);
  EXPECT_EQ(scheduler.now(), 200u);
  EXPECT_EQ(scheduler.pending_events(), 0u);
}

// Regression: run_all(max_events) used to execute max_events + 1 events
// before noticing the budget was blown.
TEST(Scheduler, RunAllBudgetIsExact) {
  Scheduler scheduler;
  std::size_t executed = 0;
  for (Time t = 1; t <= 5; ++t)
    scheduler.at(t, [&] { ++executed; });
  EXPECT_THROW(scheduler.run_all(4), Error);
  EXPECT_EQ(executed, 4u);  // not 5: the budget is a hard cap
  EXPECT_EQ(scheduler.pending_events(), 1u);
}

TEST(Scheduler, RunAllBudgetEqualToEventCountSucceeds) {
  Scheduler scheduler;
  std::size_t executed = 0;
  for (Time t = 1; t <= 5; ++t)
    scheduler.at(t, [&] { ++executed; });
  EXPECT_EQ(scheduler.run_all(5), 5u);
  EXPECT_EQ(executed, 5u);
}

TEST(Scheduler, CancelledEventsDoNotCountAgainstRunAllBudget) {
  Scheduler scheduler;
  std::vector<Scheduler::TimerToken> tokens;
  for (Time t = 1; t <= 10; ++t)
    tokens.push_back(scheduler.at(t, [] { FAIL() << "cancelled fired"; }));
  for (auto& token : tokens) token.cancel();
  std::size_t executed = 0;
  scheduler.at(20, [&] { ++executed; });
  // Budget of 1 live event; the ten cancelled ones are free.
  EXPECT_EQ(scheduler.run_all(1), 1u);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(scheduler.now(), 20u);
}

// A token names its event by (slot, sequence); once the event fired or was
// cancelled and popped, the slot is reused, and the old token must reach
// neither the newer event's pending() nor its cancel().
TEST(Scheduler, StaleTokenNeverReachesTheEventThatReusedItsSlot) {
  Scheduler scheduler;
  auto fired = scheduler.at(5, [] {});
  scheduler.run_all();
  bool ran = false;
  auto fresh = scheduler.at(10, [&] { ran = true; });  // reuses the slot
  EXPECT_FALSE(fired.pending());
  fired.cancel();
  EXPECT_TRUE(fresh.pending());
  scheduler.run_all();
  EXPECT_TRUE(ran);

  auto cancelled = scheduler.at(20, [] { FAIL() << "cancelled event fired"; });
  cancelled.cancel();
  scheduler.run_all();  // pops it, freeing the slot
  ran = false;
  auto reused = scheduler.at(30, [&] { ran = true; });
  EXPECT_FALSE(cancelled.pending());
  cancelled.cancel();
  EXPECT_TRUE(reused.pending());
  scheduler.run_all();
  EXPECT_TRUE(ran);
}

/// Counts runs and destructions of the one object a callback owns; a
/// moved-from Probe counts nothing.
struct Probe {
  int* runs;
  int* destroyed;
  bool owner = true;
  Probe(int* r, int* d) : runs(r), destroyed(d) {}
  Probe(Probe&& other) noexcept
      : runs(other.runs), destroyed(other.destroyed) {
    other.owner = false;
  }
  Probe(const Probe&) = delete;
  ~Probe() {
    if (owner) ++*destroyed;
  }
};

// Captures that spill to the heap (over the inline size) and move-only
// captures each run once and are destroyed exactly once: after firing,
// after being cancelled and popped, and with the scheduler when still
// queued.
TEST(Scheduler, CallbacksRunAndDieExactlyOnce) {
  const auto big = [](Probe probe) {
    return [probe = std::move(probe), pad = std::array<char, 64>{}]() {
      ++*probe.runs;
      (void)pad;
    };
  };
  const auto move_only = [](Probe probe) {
    return [owned = std::make_unique<Probe>(std::move(probe))]() {
      ++*owned->runs;
    };
  };
  static_assert(sizeof(decltype(big(Probe(nullptr, nullptr)))) >
                Scheduler::Callback::kInlineBytes);
  for (const bool boxed : {true, false}) {
    const auto make = [&](int* runs, int* destroyed) -> Scheduler::Callback {
      if (boxed) return big(Probe(runs, destroyed));
      return move_only(Probe(runs, destroyed));
    };
    int runs = 0, destroyed = 0;
    {
      Scheduler scheduler;
      scheduler.at(1, make(&runs, &destroyed));
      scheduler.run_all();
      EXPECT_EQ(runs, 1) << "boxed=" << boxed;
      EXPECT_EQ(destroyed, 1) << "fired, boxed=" << boxed;

      runs = destroyed = 0;
      auto token = scheduler.at(5, make(&runs, &destroyed));
      token.cancel();
      scheduler.run_all();
      EXPECT_EQ(runs, 0);
      EXPECT_EQ(destroyed, 1) << "cancelled and popped, boxed=" << boxed;

      runs = destroyed = 0;
      scheduler.at(10, make(&runs, &destroyed));
      scheduler.at(11, make(&runs, &destroyed)).cancel();
    }
    EXPECT_EQ(runs, 0);
    EXPECT_EQ(destroyed, 2) << "queued at destruction, boxed=" << boxed;
  }
}

// The running callback is moved out of its slot first, so one that
// schedules enough events to grow (and move) the slot table still reads
// its own captures intact.
TEST(Scheduler, CallbackThatGrowsTheSlotTableKeepsItsCaptures) {
  Scheduler scheduler;
  std::vector<int> seen;
  const std::vector<int> payload{1, 2, 3, 4, 5};
  scheduler.at(1, [&scheduler, &seen, payload] {
    for (int i = 0; i < 1000; ++i)
      scheduler.after(1, [&seen, i] { seen.push_back(i); });
    seen.insert(seen.end(), payload.begin(), payload.end());
  });
  EXPECT_EQ(scheduler.run_all(), 1001u);
  ASSERT_EQ(seen.size(), 1005u);
  EXPECT_EQ(std::vector<int>(seen.begin(), seen.begin() + 5), payload);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(seen[5 + i], i);
}

TEST(Scheduler, EmptyCallbacksAreRejected) {
  Scheduler scheduler;
  const std::function<void()> empty;
  EXPECT_THROW(scheduler.at(1, empty), Error);
  void (*null_function)() = nullptr;
  EXPECT_THROW(scheduler.at(1, null_function), Error);
  EXPECT_THROW(scheduler.after(1, Scheduler::Callback{}), Error);
  EXPECT_EQ(scheduler.pending_events(), 0u);
}

TEST(Scheduler, PendingEventsCountsCancelledEntriesUntilPopped) {
  Scheduler scheduler;
  auto first = scheduler.at(10, [] {});
  scheduler.at(20, [] {});
  first.cancel();
  EXPECT_FALSE(first.pending());
  EXPECT_EQ(scheduler.pending_events(), 2u);
  EXPECT_EQ(scheduler.run_until(15), 0u);  // pops the cancelled entry
  EXPECT_EQ(scheduler.pending_events(), 1u);
  EXPECT_EQ(scheduler.run_until(20), 1u);
  EXPECT_EQ(scheduler.pending_events(), 0u);
}

TEST(MessageBus, DeliversWithDefaultDelay) {
  Scheduler scheduler;
  MessageBus<std::string> bus(scheduler, /*default_delay=*/15);
  std::vector<std::pair<EndpointId, std::string>> received;
  bus.attach(2, [&](EndpointId from, const std::string& message) {
    received.emplace_back(from, message);
  });
  bus.send(1, 2, "hello");
  scheduler.run_all();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, 1u);
  EXPECT_EQ(received[0].second, "hello");
  EXPECT_EQ(scheduler.now(), 15u);
}

TEST(MessageBus, PerLinkDelayOverride) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  std::vector<int> received;
  bus.attach(5, [&](EndpointId, int value) { received.push_back(value); });
  bus.set_delay(1, 5, 50);
  bus.send(1, 5, 111);  // arrives at t=50
  bus.send(2, 5, 222);  // arrives at t=10
  scheduler.run_all();
  EXPECT_EQ(received, (std::vector<int>{222, 111}));
}

TEST(MessageBus, MessagesToUnattachedEndpointAreDropped) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler);
  bus.send(1, 99, 7);
  EXPECT_NO_THROW(scheduler.run_all());
}

TEST(MessageBus, PartitionDropsBothNewAndInFlight) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  std::vector<int> received;
  bus.attach(2, [&](EndpointId, int value) { received.push_back(value); });
  bus.send(1, 2, 1);                 // in flight when the link dies
  scheduler.run_until(5);
  bus.set_link_down(1, 2, true);
  bus.send(1, 2, 2);                 // dropped immediately
  scheduler.run_all();
  EXPECT_TRUE(received.empty());
  bus.set_link_down(1, 2, false);
  bus.send(1, 2, 3);
  scheduler.run_all();
  EXPECT_EQ(received, (std::vector<int>{3}));
}

TEST(MessageBus, PartitionIsSymmetric) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler);
  bus.set_link_down(7, 3, true);
  EXPECT_TRUE(bus.is_down(3, 7));
  EXPECT_FALSE(bus.is_down(3, 8));
}

TEST(MessageBus, OrderedDeliveryPerLink) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  std::vector<int> received;
  bus.attach(2, [&](EndpointId, int value) { received.push_back(value); });
  for (int i = 0; i < 10; ++i) bus.send(1, 2, i);
  scheduler.run_all();
  std::vector<int> expected(10);
  for (int i = 0; i < 10; ++i) expected[i] = i;
  EXPECT_EQ(received, expected);
}

TEST(MessageBus, StatsAccountForEveryOutcome) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  bus.attach(2, [](EndpointId, int) {});
  bus.send(1, 2, 1);   // delivered
  bus.send(1, 99, 2);  // no handler at 99
  bus.set_link_down(1, 3, true);
  bus.send(1, 3, 3);   // partitioned
  scheduler.run_all();
  EXPECT_EQ(bus.stats().sent, 3u);
  EXPECT_EQ(bus.stats().delivered, 1u);
  EXPECT_EQ(bus.stats().dropped_unattached, 1u);
  EXPECT_EQ(bus.stats().dropped_link_down, 1u);
  EXPECT_EQ(bus.stats().dropped_faults, 0u);
}

TEST(MessageBus, UnattachedDropIsCountedAtDeliveryTime) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  bus.send(1, 7, 5);
  EXPECT_EQ(bus.stats().dropped_unattached, 0u);  // still in flight
  scheduler.run_all();
  EXPECT_EQ(bus.stats().dropped_unattached, 1u);
}

// ---------------------------------------------------------- fault injection

TEST(FaultPlane, PerfectLinkByDefault) {
  FaultPlane plane(1);
  for (int i = 0; i < 100; ++i) {
    const auto copies = plane.plan(1, 2);
    ASSERT_EQ(copies.size(), 1u);
    EXPECT_EQ(copies[0], 0u);
  }
  EXPECT_EQ(plane.totals().sent, 100u);
  EXPECT_EQ(plane.totals().dropped, 0u);
  EXPECT_EQ(plane.totals().duplicated, 0u);
}

TEST(FaultPlane, CertainDropDiscardsEverything) {
  FaultPlane plane(1);
  plane.set_default_profile({/*drop=*/1.0, /*duplicate=*/0.0, 0});
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(plane.plan(1, 2).empty());
  EXPECT_EQ(plane.totals().dropped, 50u);
}

TEST(FaultPlane, CertainDuplicationDoublesEverySurvivor) {
  FaultPlane plane(1);
  plane.set_default_profile({0.0, /*duplicate=*/1.0, 0});
  for (int i = 0; i < 50; ++i) EXPECT_EQ(plane.plan(1, 2).size(), 2u);
  EXPECT_EQ(plane.totals().duplicated, 50u);
}

TEST(FaultPlane, JitterStaysWithinBound) {
  FaultPlane plane(7);
  plane.set_default_profile({0.0, 0.0, /*jitter_max=*/25});
  Time max_seen = 0;
  for (int i = 0; i < 200; ++i) {
    for (Time extra : plane.plan(1, 2)) {
      EXPECT_LE(extra, 25u);
      max_seen = std::max(max_seen, extra);
    }
  }
  EXPECT_GT(max_seen, 0u);  // jitter actually happens
}

TEST(FaultPlane, PerLinkProfileOverridesDefaultAndIsSymmetric) {
  FaultPlane plane(1);
  plane.set_default_profile({1.0, 0.0, 0});     // default: drop everything
  plane.set_link_profile(3, 4, {0.0, 0.0, 0});  // except the 3-4 link
  EXPECT_TRUE(plane.plan(1, 2).empty());
  EXPECT_FALSE(plane.plan(3, 4).empty());
  EXPECT_FALSE(plane.plan(4, 3).empty());  // links are symmetric
}

TEST(FaultPlane, CountersTrackPerLinkAndGlobally) {
  FaultPlane plane(1);
  plane.set_link_profile(1, 2, {1.0, 0.0, 0});
  plane.plan(1, 2);
  plane.plan(1, 2);
  plane.plan(3, 4);
  plane.note_delivered(3, 4);
  EXPECT_EQ(plane.link_counters(1, 2).sent, 2u);
  EXPECT_EQ(plane.link_counters(1, 2).dropped, 2u);
  EXPECT_EQ(plane.link_counters(3, 4).delivered, 1u);
  EXPECT_EQ(plane.link_counters(5, 6).sent, 0u);  // untouched link
  EXPECT_EQ(plane.totals().sent, 3u);
  EXPECT_EQ(plane.totals().dropped, 2u);
  EXPECT_EQ(plane.totals().delivered, 1u);
}

TEST(FaultPlane, SameSeedReproducesTheSameFateSequence) {
  FaultPlane one(42), two(42);
  const LinkFaultProfile chaos{0.3, 0.2, 40};
  one.set_default_profile(chaos);
  two.set_default_profile(chaos);
  for (int i = 0; i < 300; ++i) EXPECT_EQ(one.plan(1, 2), two.plan(1, 2));
  EXPECT_EQ(one.totals().dropped, two.totals().dropped);
  EXPECT_EQ(one.totals().duplicated, two.totals().duplicated);
}

TEST(MessageBus, FaultPlaneDropsAreCountedOnTheBus) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  FaultPlane plane(1);
  plane.set_default_profile({1.0, 0.0, 0});
  bus.set_fault_plane(&plane);
  int received = 0;
  bus.attach(2, [&](EndpointId, int) { ++received; });
  for (int i = 0; i < 20; ++i) bus.send(1, 2, i);
  scheduler.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(bus.stats().dropped_faults, 20u);
  EXPECT_EQ(plane.totals().dropped, 20u);
}

TEST(MessageBus, FaultPlaneDuplicationDeliversBothCopies) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  FaultPlane plane(1);
  plane.set_default_profile({0.0, 1.0, 0});
  bus.set_fault_plane(&plane);
  std::vector<int> received;
  bus.attach(2, [&](EndpointId, int v) { received.push_back(v); });
  bus.send(1, 2, 7);
  scheduler.run_all();
  EXPECT_EQ(received, (std::vector<int>{7, 7}));
  EXPECT_EQ(plane.totals().delivered, 2u);
  EXPECT_EQ(bus.stats().delivered, 2u);
}

TEST(Scheduler, RunAllRunawayErrorReportsSimulationState) {
  Scheduler scheduler;
  // A self-rescheduling event never drains the queue.
  std::function<void()> reschedule = [&] {
    scheduler.after(5, reschedule);
  };
  scheduler.after(5, reschedule);
  try {
    scheduler.run_all(/*max_events=*/10);
    FAIL() << "expected the runaway guard to throw";
  } catch (const Error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("runaway"), std::string::npos) << what;
    EXPECT_NE(what.find("now=" + std::to_string(scheduler.now())),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("pending_events=" +
                        std::to_string(scheduler.pending_events())),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("max_events=10"), std::string::npos) << what;
  }
}

TEST(Scheduler, TraceRecordsScheduleFireAndCancel) {
  Scheduler scheduler;
  obs::EventLog log;
  scheduler.set_event_log(&log);
  scheduler.at(10, [] {});
  auto cancelled = scheduler.at(20, [] {});
  cancelled.cancel();
  scheduler.run_all();
  EXPECT_EQ(log.count(obs::EventKind::TimerScheduled), 2u);
  EXPECT_EQ(log.count(obs::EventKind::TimerFired), 1u);
  EXPECT_EQ(log.count(obs::EventKind::TimerCancelled), 1u);
}

TEST(MessageBus, DuplicatedCopyLostToInFlightPartitionKeepsInvariant) {
  // A fault-plane duplicated copy that then hits an in-flight partition
  // used to skew "every send has exactly one terminal outcome";
  // duplicates_scheduled restores the balance.
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  FaultPlane plane(7);
  plane.set_default_profile({0.0, /*duplicate=*/1.0, 0});
  bus.set_fault_plane(&plane);
  int received = 0;
  bus.attach(2, [&](EndpointId, int) { ++received; });
  bus.send(1, 2, 1);
  scheduler.run_until(5);       // both copies still in flight
  bus.set_link_down(1, 2, true);
  scheduler.run_all();
  EXPECT_EQ(received, 0);
  const BusStats& s = bus.stats();
  EXPECT_EQ(s.sent, 1u);
  EXPECT_EQ(s.duplicates_scheduled, 1u);
  EXPECT_EQ(s.dropped_link_down, 2u);  // both copies, each counted
  EXPECT_EQ(s.sent + s.duplicates_scheduled,
            s.delivered + s.dropped_link_down + s.dropped_faults +
                s.dropped_unattached);
}

TEST(MessageBus, DuplicatedCopyToUnattachedEndpointKeepsInvariant) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  FaultPlane plane(7);
  plane.set_default_profile({0.0, /*duplicate=*/1.0, 0});
  bus.set_fault_plane(&plane);
  bus.send(1, 99, 1);  // nobody attached at 99
  scheduler.run_all();
  const BusStats& s = bus.stats();
  EXPECT_EQ(s.sent, 1u);
  EXPECT_EQ(s.duplicates_scheduled, 1u);
  EXPECT_EQ(s.dropped_unattached, 2u);
  EXPECT_EQ(s.sent + s.duplicates_scheduled,
            s.delivered + s.dropped_link_down + s.dropped_faults +
                s.dropped_unattached);
}

TEST(MessageBus, TraceRecordsSendDeliverDropAndDuplicate) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  obs::EventLog log;
  bus.set_event_log(&log);
  FaultPlane plane(7);
  bus.attach(2, [](EndpointId, int) {});

  bus.send(1, 2, 1);  // clean delivery
  scheduler.run_all();
  EXPECT_EQ(log.count(obs::EventKind::BusSend), 1u);
  EXPECT_EQ(log.count(obs::EventKind::BusDeliver), 1u);

  bus.set_link_down(1, 2, true);
  bus.send(1, 2, 2);  // dropped at send time
  scheduler.run_all();
  bus.set_link_down(1, 2, false);
  const auto drops = [&] {
    std::vector<obs::Event> out;
    for (const obs::Event& e : log.events())
      if (e.kind == obs::EventKind::BusDrop) out.push_back(e);
    return out;
  }();
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_STREQ(drops[0].detail, "link_down");

  plane.set_default_profile({1.0, 0.0, 0});  // certain drop
  bus.set_fault_plane(&plane);
  bus.send(1, 2, 3);
  scheduler.run_all();
  plane.set_default_profile({0.0, /*duplicate=*/1.0, 0});
  bus.send(1, 2, 4);
  scheduler.run_all();
  EXPECT_EQ(log.count(obs::EventKind::BusDuplicate), 1u);
  std::size_t fault_drops = 0;
  for (const obs::Event& e : log.events())
    if (e.kind == obs::EventKind::BusDrop &&
        std::string(e.detail) == "faults")
      ++fault_drops;
  EXPECT_EQ(fault_drops, 1u);
}

TEST(MessageBus, ExportMetricsSnapshotsDeliveryAccounting) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  bus.attach(2, [](EndpointId, int) {});
  bus.send(1, 2, 1);
  bus.send(1, 3, 2);  // unattached
  scheduler.run_all();
  obs::MetricsRegistry registry;
  bus.export_metrics(registry, "bus");
  EXPECT_EQ(registry.counter("bus.sent").value(), 2u);
  EXPECT_EQ(registry.counter("bus.delivered").value(), 1u);
  EXPECT_EQ(registry.counter("bus.dropped_unattached").value(), 1u);
  EXPECT_EQ(registry.counter("bus.duplicates_scheduled").value(), 0u);
}

TEST(MessageBus, JitterReordersIndependentMessages) {
  Scheduler scheduler;
  MessageBus<int> bus(scheduler, 10);
  FaultPlane plane(3);
  plane.set_default_profile({0.0, 0.0, /*jitter_max=*/50});
  bus.set_fault_plane(&plane);
  std::vector<int> received;
  bus.attach(2, [&](EndpointId, int v) { received.push_back(v); });
  std::vector<int> sent;
  for (int i = 0; i < 20; ++i) {
    sent.push_back(i);
    bus.send(1, 2, i);
  }
  scheduler.run_all();
  auto sorted = received;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, sent);       // nothing lost, nothing duplicated
  EXPECT_NE(received, sent);     // ... but the arrival order shuffled
}

TEST(FaultPlane, RejectsOutOfRangeProfilesNamingTheLink) {
  FaultPlane plane(1);
  EXPECT_THROW(plane.set_default_profile({-0.1, 0.0, 0}), Error);
  EXPECT_THROW(plane.set_default_profile({0.0, 1.5, 0}), Error);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(plane.set_default_profile({nan, 0.0, 0}), Error);
  EXPECT_THROW(plane.set_default_profile({0.0, nan, 0}), Error);
  try {
    plane.set_link_profile(3, 7, {1.5, 0.0, 0});
    FAIL() << "expected a validation error";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("link 3-7"), std::string::npos)
        << error.what();
  }
  // A rejected profile must not be installed.
  EXPECT_EQ(plane.profile_of(3, 7).drop, 0.0);
  // The boundary values are legal.
  EXPECT_NO_THROW(plane.set_link_profile(3, 7, {1.0, 1.0, 0}));
}

TEST(FaultPlane, ReorderedCountsDeliveryInvertingSendOrder) {
  FaultPlane plane(1);
  // No jitter, monotonic send times: delivery preserves order.
  for (Time now = 0; now < 50; ++now) plane.plan(1, 2, now);
  EXPECT_EQ(plane.totals().reordered, 0u);
  // A later send planned to arrive before an earlier one is an inversion.
  FaultPlane crossed(1);
  crossed.plan(1, 2, /*now=*/100);
  crossed.plan(1, 2, /*now=*/40);
  EXPECT_EQ(crossed.totals().reordered, 1u);
  EXPECT_EQ(crossed.link_counters(1, 2).reordered, 1u);
  // The two directions of a link are separate flows: the reverse direction
  // saw nothing out of order.
  crossed.plan(2, 1, /*now=*/10);
  EXPECT_EQ(crossed.totals().reordered, 1u);
}

TEST(FaultPlane, JitterProducesReorderingsAndMetricsExportThem) {
  FaultPlane plane(7);
  plane.set_default_profile({0.0, 0.3, /*jitter_max=*/40});
  for (Time now = 0; now < 400; ++now) plane.plan(1, 2, now);
  EXPECT_GT(plane.totals().reordered, 0u);
  obs::MetricsRegistry registry;
  plane.export_metrics(registry, "faults");
  EXPECT_EQ(registry.counter("faults.reordered").value(),
            plane.totals().reordered);
  EXPECT_EQ(registry.counter("faults.sent").value(), plane.totals().sent);
}

TEST(Scheduler, NextEventWithinPeeksWithoutFiring) {
  Scheduler scheduler;
  int fired = 0;
  scheduler.at(50, [&] { ++fired; });
  scheduler.at(100, [&] { ++fired; });
  EXPECT_EQ(scheduler.next_event_within(40), std::nullopt);
  ASSERT_TRUE(scheduler.next_event_within(60).has_value());
  EXPECT_EQ(*scheduler.next_event_within(60), 50u);
  EXPECT_EQ(fired, 0);  // peeking never fires anything
  scheduler.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(*scheduler.next_event_within(1000), 100u);
}

TEST(Scheduler, NextEventWithinSkipsCancelledEventsLikeRunUntil) {
  Scheduler scheduler;
  int fired = 0;
  auto token = scheduler.at(30, [&] { ++fired; });
  scheduler.at(80, [&] { ++fired; });
  token.cancel();
  // The cancelled head inside the bound is discarded (observing its time,
  // exactly as run_until would); the live event behind it is reported.
  EXPECT_EQ(*scheduler.next_event_within(200), 80u);
  EXPECT_EQ(scheduler.now(), 30u);
  scheduler.run_until(80);
  ASSERT_EQ(fired, 1);
  // A cancelled head *past* the bound stays queued.
  auto late = scheduler.at(500, [&] { ++fired; });
  late.cancel();
  EXPECT_EQ(scheduler.next_event_within(400), std::nullopt);
  scheduler.run_all();
  EXPECT_EQ(fired, 1);
}

// A delay that would carry the clock past 2^64 - 1 is refused with its own
// message instead of wrapping onto an earlier tick.
TEST(Scheduler, AfterRefusesADelayPastTheEndOfTheClock) {
  Scheduler scheduler;
  scheduler.run_until(5);
  try {
    scheduler.after(~Time{0} - 4, [] {});
    FAIL() << "expected after() to refuse the delay";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("past the end of the clock"),
              std::string::npos)
        << error.what();
  }
  EXPECT_EQ(scheduler.pending_events(), 0u);
  scheduler.after(~Time{0} - 5, [] {});  // exactly the last tick
  EXPECT_EQ(scheduler.run_all(), 1u);
  EXPECT_EQ(scheduler.now(), ~Time{0});
}

// ------------------------------------------------- differential vs the heap

// The scheduler's queue before the tick wheel, kept as the oracle: every
// pending event sits in one binary heap of (time, sequence) entries, popped
// in that order; a cancelled event stays queued until it reaches the head,
// where it is discarded and the clock moves to its time.
class HeapScheduler {
 public:
  class TimerToken {
   public:
    TimerToken() = default;
    void cancel() {
      if (pending()) owner_->callbacks_[sequence_] = nullptr;
    }
    bool pending() const {
      return owner_ != nullptr && owner_->live(sequence_);
    }

   private:
    friend class HeapScheduler;
    TimerToken(HeapScheduler* owner, std::uint64_t sequence)
        : owner_(owner), sequence_(sequence) {}
    HeapScheduler* owner_ = nullptr;
    std::uint64_t sequence_ = 0;
  };

  Time now() const { return now_; }

  TimerToken at(Time t, std::function<void()> callback) {
    require(t >= now_, "HeapScheduler::at: cannot schedule in the past");
    const std::uint64_t sequence = callbacks_.size();
    callbacks_.push_back(std::move(callback));
    queue_.push_back({t, sequence});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
    record(now_, obs::EventKind::TimerScheduled, t);
    return TimerToken(this, sequence);
  }
  TimerToken after(Time delay, std::function<void()> callback) {
    return at(now_ + delay, std::move(callback));
  }

  bool run_one() {
    if (!next_live_event(false, 0)) return false;
    fire_top();
    return true;
  }
  std::size_t run_until(Time t) {
    std::size_t executed = 0;
    for (; next_live_event(true, t); ++executed) fire_top();
    now_ = std::max(now_, t);
    return executed;
  }
  std::optional<Time> next_event_within(Time limit) {
    if (!next_live_event(true, limit)) return std::nullopt;
    return queue_.front().time;
  }
  std::size_t run_all(std::size_t max_events = 1'000'000) {
    std::size_t executed = 0;
    for (; next_live_event(false, 0); ++executed) {
      if (executed >= max_events) {
        throw Error("Scheduler::run_all: event budget exhausted (runaway "
                    "simulation?): now=" +
                    std::to_string(now_) +
                    ", pending_events=" + std::to_string(queue_.size()) +
                    ", max_events=" + std::to_string(max_events));
      }
      fire_top();
    }
    return executed;
  }
  std::size_t pending_events() const { return queue_.size(); }
  void set_event_log(obs::EventLog* log) { log_ = log; }

 private:
  struct Entry {
    Time time;
    std::uint64_t sequence;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  bool live(std::uint64_t sequence) const {
    return static_cast<bool>(callbacks_[sequence]);
  }
  Entry pop() {
    const Entry top = queue_.front();
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
    return top;
  }
  bool next_live_event(bool bounded, Time limit) {
    while (!queue_.empty()) {
      const Entry top = queue_.front();
      if (bounded && top.time > limit) return false;
      if (live(top.sequence)) return true;
      pop();
      now_ = top.time;
      record(top.time, obs::EventKind::TimerCancelled, top.sequence);
    }
    return false;
  }
  void fire_top() {
    const Entry top = pop();
    std::function<void()> callback =
        std::exchange(callbacks_[top.sequence], nullptr);
    now_ = top.time;
    record(top.time, obs::EventKind::TimerFired, top.sequence);
    callback();
  }
  void record(Time time, obs::EventKind kind, std::uint64_t value) {
    if (log_ != nullptr) {
      log_->record({.time = time,
                    .kind = kind,
                    .value = static_cast<std::int64_t>(value)});
    }
  }

  Time now_ = 0;
  std::vector<Entry> queue_;  ///< binary heap under Later
  /// By sequence; empty once the event fired or was cancelled.
  std::vector<std::function<void()>> callbacks_;
  obs::EventLog* log_ = nullptr;
};

/// A delay from the differential's palette: the wheel's edges (0, 1, 255,
/// 256, 257) half the time, otherwise anything up to three wheel widths.
Time draw_delay(Rng& rng) {
  constexpr std::array<Time, 5> kEdges{0, 1, 255, 256, 257};
  if (rng.chance(0.5)) return kEdges[rng.next_below(kEdges.size())];
  return rng.next_below(769);
}

/// One scheduler under the differential script. Event `id`'s callback logs
/// its id and then, from an Rng seeded by `id` alone, schedules up to two
/// children (while the event budget lasts) and may cancel any earlier
/// event, so two schedulers that fire the same events do the same work.
template <typename S>
struct SchedulerHarness {
  static constexpr std::size_t kMaxEvents = 3000;

  explicit SchedulerHarness(std::uint64_t seed) : seed(seed) {
    scheduler.set_event_log(&log);
  }
  SchedulerHarness(const SchedulerHarness&) = delete;
  SchedulerHarness& operator=(const SchedulerHarness&) = delete;

  /// Schedules a new event through after(delay) (mode 0), at(now + delay)
  /// (mode 1), at() on the first multiple of 64 at or past now + delay
  /// (mode 2), or at() on the tick of the earlier event `pick` (modulo the
  /// count) if that is not past (mode 3): the last two make events
  /// scheduled at different times share ticks.
  void schedule(Time delay, std::uint64_t mode, std::uint64_t pick) {
    const std::size_t id = tokens.size();
    const Time now = scheduler.now();
    Time t = now + delay;
    if (mode == 2) t = (t + 63) / 64 * 64;
    if (mode == 3 && id != 0) t = std::max(now, due[pick % id]);
    const auto callback = [this, id] { fire(id); };
    tokens.push_back(mode == 0 ? scheduler.after(delay, callback)
                               : scheduler.at(t, callback));
    due.push_back(t);
  }
  void fire(std::size_t id) {
    fired.push_back(id);
    Rng rng(seed * 1'000'003 + id);
    const std::uint64_t children = rng.next_below(3);
    for (std::uint64_t c = 0; c < children && tokens.size() < kMaxEvents;
         ++c) {
      const Time delay = draw_delay(rng);
      const std::uint64_t mode = rng.next_below(4);
      schedule(delay, mode, rng.next());
    }
    if (rng.chance(cancel_rate()))
      tokens[rng.next_below(tokens.size())].cancel();
  }
  /// How often a callback cancels: 0.1 to 0.85 by seed, so some scripts
  /// leave the wheel holding only cancelled events.
  double cancel_rate() const {
    return 0.1 + 0.25 * static_cast<double>(seed % 4);
  }
  /// run_all's count, or its runaway diagnostic.
  std::string run_all(std::size_t budget) {
    try {
      return std::to_string(scheduler.run_all(budget));
    } catch (const Error& error) {
      return error.what();
    }
  }

  S scheduler;
  obs::EventLog log;
  std::vector<typename S::TimerToken> tokens;  ///< by event id
  std::vector<Time> due;                       ///< by event id
  std::vector<std::size_t> fired;              ///< event ids, firing order
  std::uint64_t seed;
};

/// Compares everything a caller can observe of the two schedulers: clock,
/// queue size, firing order, token states and the timer records logged
/// since record `from` (advanced past them).
void expect_same_state(SchedulerHarness<Scheduler>& wheel,
                       SchedulerHarness<HeapScheduler>& heap,
                       std::size_t& from, const std::string& where) {
  ASSERT_EQ(wheel.scheduler.now(), heap.scheduler.now()) << where;
  ASSERT_EQ(wheel.scheduler.pending_events(), heap.scheduler.pending_events())
      << where;
  ASSERT_EQ(wheel.fired, heap.fired) << where;
  ASSERT_EQ(wheel.tokens.size(), heap.tokens.size()) << where;
  for (std::size_t id = 0; id < wheel.tokens.size(); ++id)
    ASSERT_EQ(wheel.tokens[id].pending(), heap.tokens[id].pending())
        << where << ", event " << id;
  const std::vector<obs::Event>& a = wheel.log.events();
  const std::vector<obs::Event>& b = heap.log.events();
  ASSERT_EQ(a.size(), b.size()) << where;
  for (; from < a.size(); ++from) {
    ASSERT_EQ(a[from].kind, b[from].kind) << where << ", record " << from;
    ASSERT_EQ(a[from].time, b[from].time) << where << ", record " << from;
    ASSERT_EQ(a[from].value, b[from].value) << where << ", record " << from;
  }
}

// Seeded scripts interleave scheduling on both sides of the wheel's edge,
// cancellations of pending, fired and stale tokens, and every way of
// running the queue (bounded by targets inside and past the wheel's width),
// with callbacks that schedule and cancel in turn; the scheduler must match
// the heap in everything a caller can see.
TEST(Scheduler, WheelMatchesTheHeap) {
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SchedulerHarness<Scheduler> wheel(seed);
    SchedulerHarness<HeapScheduler> heap(seed);
    Rng rng(seed);
    std::size_t compared = 0;
    for (std::size_t step = 0; step < 700; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + ", step " + std::to_string(step);
      const std::uint64_t op = rng.next_below(100);
      const Time now = wheel.scheduler.now();
      if (op < 35) {
        if (wheel.tokens.size() < SchedulerHarness<Scheduler>::kMaxEvents) {
          const Time delay = draw_delay(rng);
          const std::uint64_t mode = rng.next_below(4);
          const std::uint64_t pick = rng.next();
          wheel.schedule(delay, mode, pick);
          heap.schedule(delay, mode, pick);
        }
      } else if (op < 50) {
        if (!wheel.tokens.empty()) {
          const std::uint64_t id = rng.next_below(wheel.tokens.size());
          wheel.tokens[id].cancel();
          heap.tokens[id].cancel();
        }
      } else if (op < 62) {
        ASSERT_EQ(wheel.scheduler.run_one(), heap.scheduler.run_one())
            << where;
      } else if (op < 77) {
        const Time target =
            now + (rng.chance(0.5) ? draw_delay(rng) : rng.next_below(1200));
        ASSERT_EQ(wheel.scheduler.run_until(target),
                  heap.scheduler.run_until(target))
            << where;
      } else if (op < 92) {
        const Time limit =
            now + (rng.chance(0.5) ? draw_delay(rng) : rng.next_below(1200));
        const std::optional<Time> next =
            wheel.scheduler.next_event_within(limit);
        ASSERT_EQ(next, heap.scheduler.next_event_within(limit)) << where;
        // Join the head's tick, as a driver stepping event by event would.
        if (next && rng.chance(0.5) &&
            wheel.tokens.size() < SchedulerHarness<Scheduler>::kMaxEvents) {
          wheel.schedule(*next - wheel.scheduler.now(), 1, 0);
          heap.schedule(*next - heap.scheduler.now(), 1, 0);
        }
      } else {
        // A small budget throws part-way; a large one drains the queue.
        const std::size_t budget =
            rng.chance(0.5) ? rng.next_below(40) : 1'000'000;
        ASSERT_EQ(wheel.run_all(budget), heap.run_all(budget)) << where;
      }
      expect_same_state(wheel, heap, compared, where);
      if (HasFatalFailure()) return;
    }
    EXPECT_GT(wheel.fired.size(), 500u) << "seed " << seed;
  }
}

// An event scheduled beyond the wheel waits in the heap tier until the
// clock comes within a wheel width of it; it still fires before an event
// scheduled later for the same tick straight into the wheel, whether the
// clock got there by firing an event, by run_until, or by discarding a
// cancelled one.
TEST(Scheduler, EventBeyondTheWheelFiresBeforeALaterOneAtItsTick) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.at(300, [&] { order.push_back(1); });  // 300 ticks out
  scheduler.at(100, [&] {
    scheduler.at(300, [&] { order.push_back(2); });  // 200 ticks out
  });
  EXPECT_EQ(scheduler.run_until(299), 1u);
  scheduler.at(300, [&] { order.push_back(3); });
  EXPECT_EQ(scheduler.run_until(300), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));

  // Discarding a cancelled event moves the clock too, whether the event
  // sits in the heap tier or has reached the wheel.
  for (const bool from_wheel : {false, true}) {
    const Time base = scheduler.now();
    const Time due = base + 700;
    scheduler.at(due, [&] { order.push_back(4); });
    scheduler.at(due - 200, [] { FAIL() << "cancelled event fired"; })
        .cancel();
    if (from_wheel) scheduler.run_until(base + 400);
    EXPECT_EQ(scheduler.next_event_within(due), due);
    EXPECT_EQ(scheduler.now(), due - 200);
    scheduler.at(due, [&] { order.push_back(5); });
    EXPECT_EQ(scheduler.run_until(due), 2u);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 4, 5}));
}

// Cancelled events in the wheel and in the heap tier stay queued until the
// clock reaches them, then go with a TimerCancelled record at their own
// tick carrying their sequence.
TEST(Scheduler, CancelledEventsOnBothTiersLeaveAtTheirTicks) {
  Scheduler scheduler;
  obs::EventLog log;
  scheduler.set_event_log(&log);
  auto near = scheduler.at(10, [] { FAIL() << "cancelled event fired"; });
  auto far = scheduler.at(5000, [] { FAIL() << "cancelled event fired"; });
  int fired = 0;
  scheduler.at(20, [&] { ++fired; });
  scheduler.at(6000, [&] { ++fired; });
  near.cancel();
  far.cancel();
  EXPECT_EQ(scheduler.pending_events(), 4u);
  EXPECT_EQ(scheduler.run_until(15), 0u);
  EXPECT_EQ(scheduler.pending_events(), 3u);
  EXPECT_EQ(scheduler.run_until(20), 1u);
  EXPECT_EQ(scheduler.next_event_within(4999), std::nullopt);
  EXPECT_EQ(scheduler.pending_events(), 2u);
  EXPECT_EQ(scheduler.next_event_within(7000), Time{6000});
  EXPECT_EQ(scheduler.now(), 5000u);
  EXPECT_EQ(scheduler.pending_events(), 1u);
  EXPECT_EQ(scheduler.run_all(), 1u);
  EXPECT_EQ(fired, 2);
  std::vector<std::pair<Time, std::int64_t>> cancelled;
  for (const obs::Event& event : log.events()) {
    if (event.kind == obs::EventKind::TimerCancelled)
      cancelled.emplace_back(event.time, event.value);
  }
  EXPECT_EQ(cancelled,
            (std::vector<std::pair<Time, std::int64_t>>{{10, 0}, {5000, 1}}));
}

// Near the top of the clock the wheel's window would reach past 2^64 - 1;
// it must stop there rather than wrap onto tick 0.
TEST(Scheduler, WindowSaturatesAtTheTopOfTheClock) {
  constexpr Time kTop = ~Time{0};
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.at(kTop, [&] { order.push_back(2); });
  EXPECT_EQ(scheduler.next_event_within(kTop - 1), std::nullopt);
  EXPECT_EQ(scheduler.run_until(kTop - 300), 0u);
  EXPECT_EQ(scheduler.run_until(kTop - 100), 0u);
  EXPECT_EQ(scheduler.now(), kTop - 100);
  scheduler.at(kTop, [&] { order.push_back(3); });
  scheduler.at(kTop - 1, [&] { order.push_back(1); });
  scheduler.at(kTop - 100, [&] { order.push_back(0); });
  EXPECT_EQ(scheduler.next_event_within(kTop), kTop - 100);
  EXPECT_EQ(scheduler.run_until(kTop), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(scheduler.now(), kTop);
  scheduler.after(0, [&] { order.push_back(4); });
  EXPECT_EQ(scheduler.run_all(), 1u);
  EXPECT_EQ(order.back(), 4);
  EXPECT_EQ(scheduler.pending_events(), 0u);

  Scheduler fresh;
  bool fired = false;
  fresh.at(kTop, [&] { fired = true; });
  EXPECT_EQ(fresh.run_all(), 1u);
  EXPECT_TRUE(fired);
  EXPECT_EQ(fresh.now(), kTop);
}

}  // namespace
}  // namespace miro::sim
