#include "netsim/scheduler.hpp"

#include <algorithm>
#include <bit>
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
    require(slots_.size() < kNoSlot, "Scheduler::at: too many pending events");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::uint64_t sequence = next_sequence_++;
  slots_[slot].callback = std::move(callback);
  slots_[slot].sequence = sequence;
  slots_[slot].cancelled = false;
  if (t - now_ < kWheelTicks) {
    push_wheel(slot, t);
  } else {
    heap_.push_back({t, sequence, slot});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  if (log_ != nullptr) {
    log_->record({.time = now_,
                  .kind = obs::EventKind::TimerScheduled,
                  .value = static_cast<std::int64_t>(t)});
  }
  return TimerToken(this, slot, sequence);
}

Scheduler::TimerToken Scheduler::after(Time delay, Callback callback) {
  if (delay > std::numeric_limits<Time>::max() - now_) {
    throw Error("Scheduler::after: a delay of " + std::to_string(delay) +
                " ticks from tick " + std::to_string(now_) +
                " runs past the end of the clock");
  }
  return at(now_ + delay, std::move(callback));
}

void Scheduler::push_wheel(std::uint32_t slot, Time time) {
  const std::size_t index = time % kWheelTicks;
  Tick& tick = wheel_[index];
  slots_[slot].next = kNoSlot;
  if (tick.head == kNoSlot) {
    tick.head = slot;
    occupied_[index / 64] |= std::uint64_t{1} << (index % 64);
  } else {
    slots_[tick.tail].next = slot;
  }
  tick.tail = slot;
  ++wheel_events_;
}

std::uint32_t Scheduler::pop_wheel(Time time) {
  const std::size_t index = time % kWheelTicks;
  Tick& tick = wheel_[index];
  const std::uint32_t slot = tick.head;
  tick.head = slots_[slot].next;
  if (tick.head == kNoSlot) {
    tick.tail = kNoSlot;
    occupied_[index / 64] &= ~(std::uint64_t{1} << (index % 64));
  }
  --wheel_events_;
  return slot;
}

Time Scheduler::first_wheel_tick() const {
  // Ticks in time order start at now()'s list and wrap around the wheel:
  // the start word's bits from now() up come first, its lower bits last.
  const std::size_t start = now_ % kWheelTicks;
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  for (std::size_t i = 0; bits == 0 && i < kOccupancyWords; ++i) {
    word = (word + 1) % kOccupancyWords;
    bits = occupied_[word];
  }
  const Time index = word * 64 + static_cast<Time>(std::countr_zero(bits));
  return now_ + (index - now_) % kWheelTicks;
}

void Scheduler::advance(Time time) {
  now_ = time;
  while (!heap_.empty() && heap_.front().time - now_ < kWheelTicks) {
    const Entry entry = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    push_wheel(entry.slot, entry.time);
  }
}

void Scheduler::release(std::uint32_t slot) {
  slots_[slot].sequence = kVacant;
  free_slots_.push_back(slot);
}

std::optional<Time> Scheduler::next_live_event(bool bounded, Time limit) {
  for (;;) {
    // The wheel holds everything due within a wheel width; the heap tier
    // only later events.
    Time time = 0;
    std::uint32_t slot = 0;
    if (wheel_events_ != 0) {
      time = first_wheel_tick();
      slot = wheel_[time % kWheelTicks].head;
    } else if (!heap_.empty()) {
      time = heap_.front().time;
      slot = heap_.front().slot;
    } else {
      return std::nullopt;
    }
    // Never pop past the bound: a cancelled event beyond `limit` must stay
    // queued, or skipping it would overshoot now_ and expose later live
    // events to run_until.
    if (bounded && time > limit) return std::nullopt;
    if (!slots_[slot].cancelled) return time;
    // Cancelled: discard, observing its originally scheduled time.
    advance(time);
    pop_wheel(time);
    if (log_ != nullptr) {
      log_->record({.time = time,
                    .kind = obs::EventKind::TimerCancelled,
                    .value = static_cast<std::int64_t>(slots_[slot].sequence)});
    }
    slots_[slot].callback = {};
    release(slot);
  }
}

void Scheduler::fire_head(Time time) {
  // Brings a heap-tier head into the wheel, ahead of anything else due at
  // its tick.
  advance(time);
  const std::uint32_t slot = pop_wheel(time);
  // Moved out first: the callback may schedule events that grow (and so
  // move) the slot table, or reuse this very slot.
  Callback callback = std::move(slots_[slot].callback);
  const std::uint64_t sequence = slots_[slot].sequence;
  release(slot);
  if (log_ != nullptr) {
    log_->record({.time = time,
                  .kind = obs::EventKind::TimerFired,
                  .value = static_cast<std::int64_t>(sequence)});
  }
  callback();
}

bool Scheduler::run_one() {
  const std::optional<Time> time = next_live_event(false, 0);
  if (!time) return false;
  fire_head(*time);
  return true;
}

std::optional<Time> Scheduler::next_event_within(Time limit) {
  return next_live_event(true, limit);
}

std::size_t Scheduler::run_until(Time t) {
  obs::ScopedSpan span(obs::profile(), "netsim/run_until", "netsim");
  std::size_t executed = 0;
  while (const std::optional<Time> time = next_live_event(true, t)) {
    fire_head(*time);
    ++executed;
  }
  if (now_ < t) advance(t);
  return executed;
}

std::size_t Scheduler::run_all(std::size_t max_events) {
  obs::ScopedSpan span(obs::profile(), "netsim/run_all", "netsim");
  std::size_t executed = 0;
  while (const std::optional<Time> time = next_live_event(false, 0)) {
    if (executed >= max_events) {
      // The budget is checked before firing, so a livelocked run executes
      // exactly max_events callbacks; the diagnostic tells it apart from
      // any other require() failure by reporting where it was stuck.
      throw Error("Scheduler::run_all: event budget exhausted (runaway "
                  "simulation?): now=" +
                  std::to_string(now_) +
                  ", pending_events=" + std::to_string(pending_events()) +
                  ", max_events=" + std::to_string(max_events));
    }
    fire_head(*time);
    ++executed;
  }
  return executed;
}

}  // namespace miro::sim
