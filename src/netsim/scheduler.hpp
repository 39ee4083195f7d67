// Discrete-event scheduler for the control-plane simulations.
//
// MIRO's negotiation handshake (Figure 4.2) and the soft-state keep-alive
// protocol for tunnels (Section 4.3) are inherently asynchronous; they run
// here on simulated time. Events at the same timestamp fire in insertion
// order, which keeps every simulation deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "obs/event_log.hpp"

namespace miro::sim {

/// Simulated time in abstract ticks (the protocol code treats one tick as a
/// millisecond, but nothing depends on the unit).
using Time = std::uint64_t;

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Cancellation handle for a scheduled event. Destroying the token does
  /// NOT cancel; call cancel().
  class TimerToken {
   public:
    TimerToken() = default;
    /// Cancels the pending event; harmless if it already fired.
    void cancel() {
      if (alive_) *alive_ = false;
    }
    bool pending() const { return alive_ && *alive_; }

   private:
    friend class Scheduler;
    explicit TimerToken(std::shared_ptr<bool> alive)
        : alive_(std::move(alive)) {}
    std::shared_ptr<bool> alive_;
  };

  Time now() const { return now_; }

  /// Schedules `callback` at absolute time `t` (>= now).
  TimerToken at(Time t, Callback callback);

  /// Schedules `callback` `delay` ticks from now.
  TimerToken after(Time delay, Callback callback) {
    return at(now_ + delay, std::move(callback));
  }

  /// Runs the next event; returns false when the queue is empty.
  bool run_one();

  /// Runs events with timestamp <= `t` (and advances now() to `t`). Events
  /// scheduled after `t` — live or cancelled — are never touched.
  /// Returns the number of events executed.
  std::size_t run_until(Time t);

  /// Peeks the timestamp of the next live event, or nullopt when no live
  /// event is due at or before `limit`. Cancelled events at the head with
  /// timestamp <= `limit` are discarded (observing their scheduled times),
  /// exactly as run_until(limit) would; nothing fires and nothing past
  /// `limit` is touched. Lets a driver step a simulation event-time by
  /// event-time (e.g. the churn replayer's convergence-settle detection).
  std::optional<Time> next_event_within(Time limit);

  /// Drains the queue; throws once a live event beyond the `max_events`
  /// budget is due (exactly `max_events` callbacks execute first) as a
  /// runaway guard. Cancelled events never count against the budget.
  std::size_t run_all(std::size_t max_events = 1'000'000);

  std::size_t pending_events() const { return queue_.size(); }

  /// Attaches (or clears, with nullptr) an event log observing timer
  /// schedule/fire/cancel events. A cancellation is observed when the dead
  /// event is popped, carrying its originally scheduled time. A null log
  /// costs one branch per operation and allocates nothing.
  void set_event_log(obs::EventLog* log) { log_ = log; }

 private:
  /// Discards cancelled events at the head of the queue (observing their
  /// scheduled times) until a live event is on top; returns false when the
  /// queue empties or (if `bounded`) the head lies beyond `limit`.
  bool next_live_event(bool bounded, Time limit);
  /// Pops and executes the head event, which must be live.
  void fire_top();

  struct Event {
    Time time;
    std::uint64_t sequence;
    Callback callback;
    std::shared_ptr<bool> alive;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;  // FIFO within a timestamp
    }
  };

  Time now_ = 0;
  std::uint64_t next_sequence_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  obs::EventLog* log_ = nullptr;
};

}  // namespace miro::sim
