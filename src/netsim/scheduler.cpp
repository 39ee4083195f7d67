#include "netsim/scheduler.hpp"

#include <string>

#include "common/error.hpp"
#include "obs/profile.hpp"

namespace miro::sim {

Scheduler::TimerToken Scheduler::at(Time t, Callback callback) {
  require(t >= now_, "Scheduler::at: cannot schedule in the past");
  require(static_cast<bool>(callback), "Scheduler::at: empty callback");
  auto alive = std::make_shared<bool>(true);
  queue_.push(Event{t, next_sequence_++, std::move(callback), alive});
  if (log_ != nullptr) {
    log_->record({.time = now_,
                  .kind = obs::EventKind::TimerScheduled,
                  .value = static_cast<std::int64_t>(t)});
  }
  return TimerToken(std::move(alive));
}

bool Scheduler::next_live_event(bool bounded, Time limit) {
  while (!queue_.empty()) {
    const Event& top = queue_.top();
    // Never pop past the bound: a cancelled event beyond `limit` must stay
    // queued, or skipping it would overshoot now_ and expose later live
    // events to run_until.
    if (bounded && top.time > limit) return false;
    if (*top.alive) return true;
    // Cancelled: discard, observing its originally scheduled time.
    now_ = top.time;
    if (log_ != nullptr) {
      log_->record({.time = top.time,
                    .kind = obs::EventKind::TimerCancelled,
                    .value = static_cast<std::int64_t>(top.sequence)});
    }
    queue_.pop();
  }
  return false;
}

void Scheduler::fire_top() {
  Event event = queue_.top();
  queue_.pop();
  now_ = event.time;
  *event.alive = false;  // mark fired
  if (log_ != nullptr) {
    log_->record({.time = event.time,
                  .kind = obs::EventKind::TimerFired,
                  .value = static_cast<std::int64_t>(event.sequence)});
  }
  event.callback();
}

bool Scheduler::run_one() {
  if (!next_live_event(false, 0)) return false;
  fire_top();
  return true;
}

std::optional<Time> Scheduler::next_event_within(Time limit) {
  if (!next_live_event(true, limit)) return std::nullopt;
  return queue_.top().time;
}

std::size_t Scheduler::run_until(Time t) {
  obs::ScopedSpan span(obs::profile(), "netsim/run_until", "netsim");
  std::size_t executed = 0;
  while (next_live_event(true, t)) {
    fire_top();
    ++executed;
  }
  if (now_ < t) now_ = t;
  return executed;
}

std::size_t Scheduler::run_all(std::size_t max_events) {
  obs::ScopedSpan span(obs::profile(), "netsim/run_all", "netsim");
  std::size_t executed = 0;
  while (next_live_event(false, 0)) {
    if (executed >= max_events) {
      // The budget is checked before firing, so a livelocked run executes
      // exactly max_events callbacks; the diagnostic tells it apart from
      // any other require() failure by reporting where it was stuck.
      throw Error("Scheduler::run_all: event budget exhausted (runaway "
                  "simulation?): now=" +
                  std::to_string(now_) +
                  ", pending_events=" + std::to_string(queue_.size()) +
                  ", max_events=" + std::to_string(max_events));
    }
    fire_top();
    ++executed;
  }
  return executed;
}

}  // namespace miro::sim
