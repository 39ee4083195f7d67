#include "netsim/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "obs/profile.hpp"

namespace miro::sim {

Scheduler::TimerToken Scheduler::at(Time t, Callback callback) {
  require(t >= now_, "Scheduler::at: cannot schedule in the past");
  require(static_cast<bool>(callback), "Scheduler::at: empty callback");
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    require(slots_.size() < std::numeric_limits<std::uint32_t>::max(),
            "Scheduler::at: too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t sequence = next_sequence_++;
  slots_[slot].callback = std::move(callback);
  slots_[slot].sequence = sequence;
  queue_.push_back({t, sequence, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
  if (log_ != nullptr) {
    log_->record({.time = now_,
                  .kind = obs::EventKind::TimerScheduled,
                  .value = static_cast<std::int64_t>(t)});
  }
  return TimerToken(this, slot, sequence);
}

void Scheduler::pop_top() {
  free_slots_.push_back(queue_.front().slot);
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  queue_.pop_back();
}

bool Scheduler::next_live_event(bool bounded, Time limit) {
  while (!queue_.empty()) {
    const Entry top = queue_.front();
    // Never pop past the bound: a cancelled event beyond `limit` must stay
    // queued, or skipping it would overshoot now_ and expose later live
    // events to run_until.
    if (bounded && top.time > limit) return false;
    Slot& slot = slots_[top.slot];
    if (slot.sequence == top.sequence) return true;
    // Cancelled: discard, observing its originally scheduled time.
    now_ = top.time;
    if (log_ != nullptr) {
      log_->record({.time = top.time,
                    .kind = obs::EventKind::TimerCancelled,
                    .value = static_cast<std::int64_t>(top.sequence)});
    }
    slot.callback = {};
    pop_top();
  }
  return false;
}

void Scheduler::fire_top() {
  const Entry top = queue_.front();
  // Moved out first: the callback may schedule events that grow (and so
  // move) the slot table, or reuse this very slot.
  Callback callback = std::move(slots_[top.slot].callback);
  slots_[top.slot].sequence = kVacant;  // mark fired
  pop_top();
  now_ = top.time;
  if (log_ != nullptr) {
    log_->record({.time = top.time,
                  .kind = obs::EventKind::TimerFired,
                  .value = static_cast<std::int64_t>(top.sequence)});
  }
  callback();
}

bool Scheduler::run_one() {
  if (!next_live_event(false, 0)) return false;
  fire_top();
  return true;
}

std::optional<Time> Scheduler::next_event_within(Time limit) {
  if (!next_live_event(true, limit)) return std::nullopt;
  return queue_.front().time;
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
