// Discrete-event scheduler for the control-plane simulations.
//
// MIRO's negotiation handshake (Figure 4.2) and the soft-state keep-alive
// protocol for tunnels (Section 4.3) are inherently asynchronous; they run
// here on simulated time. Events at the same timestamp fire in insertion
// order, which keeps every simulation deterministic.
//
// Scheduling allocates nothing per event once the tables have grown: a
// callback's captures live inline in its slot (up to Callback::kInlineBytes),
// and pending callbacks sit in a slot table reused as events retire. A
// TimerToken names its event by (slot, sequence); the sequence number is
// unique per event, so it doubles as the slot's generation and a stale
// token can never reach a newer event that reused the slot.
//
// The queue has two tiers. An event due fewer than kWheelTicks ticks after
// now() sits in a tick wheel: one FIFO list per tick, threaded through the
// slot table by each slot's `next` link and found through a 256-bit
// occupancy map, so scheduling and firing it cost O(1). A later event
// (damping reuse, an agent's timeout) waits in a binary heap of 24-byte
// (time, sequence, slot) entries, and the heap hands it to the wheel as
// soon as now() comes within a wheel width of its time. Events still leave
// in (time, sequence) order: an event bound for tick t enters t's list
// either when it is scheduled, once t is inside the window, or when the
// heap releases it. The release happens the moment now() advances far
// enough, before any callback can run at the new time, so every event the
// heap releases to t precedes (in sequence too) every event scheduled
// straight into t's list, and the heap pops them in sequence order.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/event_log.hpp"

namespace miro::sim {

/// Simulated time in abstract ticks (the protocol code treats one tick as a
/// millisecond, but nothing depends on the unit).
using Time = std::uint64_t;

class Scheduler {
 public:
  /// A move-only `void()` callable. A capture of at most kInlineBytes that
  /// moves without throwing is stored inside the callback; a larger one is
  /// moved to the heap. (libstdc++'s std::function keeps only 16 bytes
  /// inline and requires copyable captures; C++20 has no
  /// move_only_function.) Constructed implicitly from any callable, like
  /// std::function; a null function pointer or an empty std::function makes
  /// an empty Callback.
  class Callback {
   public:
    static constexpr std::size_t kInlineBytes = 48;

    Callback() = default;
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                          std::is_invocable_r_v<void, D&>>>
    Callback(F&& f) {  // implicit, like std::function
      if (is_null(f)) return;
      if constexpr (kFitsInline<D>) {
        ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
        ops_ = &Inline<D>::kOps;
      } else {
        ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
        ops_ = &Boxed<D>::kOps;
      }
    }
    Callback(Callback&& other) noexcept { take(other); }
    Callback& operator=(Callback&& other) noexcept {
      if (this != &other) {
        reset();
        take(other);
      }
      return *this;
    }
    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;
    ~Callback() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }
    /// Runs the callable; the callback must not be empty.
    void operator()() { ops_->invoke(storage_); }

   private:
    struct Ops {
      void (*invoke)(void* storage);
      /// Move-constructs `to` from `from` and ends `from`'s lifetime.
      void (*relocate)(void* from, void* to) noexcept;
      void (*destroy)(void* storage) noexcept;
    };
    template <typename D>
    static constexpr bool kFitsInline =
        sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    struct Inline {
      static D& get(void* s) { return *std::launder(static_cast<D*>(s)); }
      static void invoke(void* s) { get(s)(); }
      static void relocate(void* from, void* to) noexcept {
        ::new (to) D(std::move(get(from)));
        get(from).~D();
      }
      static void destroy(void* s) noexcept { get(s).~D(); }
      static constexpr Ops kOps{&invoke, &relocate, &destroy};
    };
    template <typename D>
    struct Boxed {
      static D* get(void* s) { return *std::launder(static_cast<D**>(s)); }
      static void invoke(void* s) { (*get(s))(); }
      static void relocate(void* from, void* to) noexcept {
        ::new (to) D*(get(from));
      }
      static void destroy(void* s) noexcept { delete get(s); }
      static constexpr Ops kOps{&invoke, &relocate, &destroy};
    };

    template <typename T>
    struct IsStdFunction : std::false_type {};
    template <typename R, typename... Args>
    struct IsStdFunction<std::function<R(Args...)>> : std::true_type {};
    template <typename D>
    static bool is_null(const D& f) {
      if constexpr (std::is_pointer_v<D> || std::is_member_pointer_v<D>) {
        return f == nullptr;
      } else if constexpr (IsStdFunction<D>::value) {
        return !f;
      } else {
        return false;
      }
    }

    void take(Callback& other) noexcept {
      if (other.ops_ == nullptr) return;
      other.ops_->relocate(other.storage_, storage_);
      ops_ = std::exchange(other.ops_, nullptr);
    }
    void reset() noexcept {
      if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(storage_);
    }

    alignas(void*) unsigned char storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
  };

  /// Cancellation handle for a scheduled event. Destroying the token does
  /// NOT cancel; call cancel(). A token refers to its scheduler by address:
  /// it must not be used (cancel() or pending()) after that scheduler is
  /// destroyed or moved. A default-constructed token is never pending.
  class TimerToken {
   public:
    TimerToken() = default;
    /// Cancels the pending event; harmless if it already fired, was
    /// cancelled, or its slot now holds a newer event.
    void cancel() {
      if (scheduler_ != nullptr) scheduler_->cancel(slot_, sequence_);
    }
    bool pending() const {
      return scheduler_ != nullptr && scheduler_->live(slot_, sequence_);
    }

   private:
    friend class Scheduler;
    TimerToken(Scheduler* scheduler, std::uint32_t slot,
               std::uint64_t sequence)
        : scheduler_(scheduler), sequence_(sequence), slot_(slot) {}
    Scheduler* scheduler_ = nullptr;
    std::uint64_t sequence_ = 0;
    std::uint32_t slot_ = 0;
  };

  Scheduler() = default;
  // Tokens and scheduled callbacks hold the scheduler's address.
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  Time now() const { return now_; }

  /// Schedules `callback` at absolute time `t` (>= now).
  TimerToken at(Time t, Callback callback);

  /// Schedules `callback` `delay` ticks from now; throws when now() +
  /// `delay` lies past the end of the clock.
  TimerToken after(Time delay, Callback callback);

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

  /// Queued events, cancelled ones included until they are popped.
  std::size_t pending_events() const { return wheel_events_ + heap_.size(); }

  /// Attaches (or clears, with nullptr) an event log observing timer
  /// schedule/fire/cancel events. A cancellation is observed when the dead
  /// event is popped, carrying its originally scheduled time. A null log
  /// costs one branch per operation and allocates nothing.
  void set_event_log(obs::EventLog* log) { log_ = log; }

 private:
  /// Ticks the wheel covers: an event due fewer than this many ticks after
  /// now() sits in the wheel, a later one in the heap tier.
  static constexpr Time kWheelTicks = 256;
  // A power of two, so a tick's list index survives the clock's wrap-around
  // arithmetic, and whole 64-bit occupancy words.
  static_assert((kWheelTicks & (kWheelTicks - 1)) == 0 &&
                kWheelTicks % 64 == 0);
  static constexpr std::size_t kOccupancyWords = kWheelTicks / 64;
  /// A free slot's sequence; no event is ever numbered this high.
  static constexpr std::uint64_t kVacant = ~std::uint64_t{0};
  /// End of a tick's list.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Discards cancelled events at the head of the queue (observing their
  /// scheduled times) until a live event is at the head; returns its time,
  /// or nullopt when the queue empties or (if `bounded`) the head lies
  /// beyond `limit`.
  std::optional<Time> next_live_event(bool bounded, Time limit);
  /// Pops and executes the head event, which must be live and due at `time`.
  void fire_head(Time time);
  /// Moves the clock to `time` (>= now) and hands the heap tier's events
  /// that are now inside the wheel's window to the wheel.
  void advance(Time time);
  /// Appends `slot`, due at `time` inside the window, to its tick's list.
  void push_wheel(std::uint32_t slot, Time time);
  /// Unlinks and returns the first slot of the list of tick `time`.
  std::uint32_t pop_wheel(Time time);
  /// The wheel's first non-empty tick at or after now(); the wheel must not
  /// be empty.
  Time first_wheel_tick() const;
  /// Returns a retired slot to the free list.
  void release(std::uint32_t slot);

  bool live(std::uint32_t slot, std::uint64_t sequence) const {
    return slot < slots_.size() && slots_[slot].sequence == sequence &&
           !slots_[slot].cancelled;
  }
  void cancel(std::uint32_t slot, std::uint64_t sequence) {
    if (live(slot, sequence)) slots_[slot].cancelled = true;
  }

  /// One pending callback. `sequence` names the event that owns the slot
  /// (kVacant once it fired or left the queue); a cancelled event keeps its
  /// callback and sequence until it leaves the queue, where its record
  /// carries the sequence.
  struct Slot {
    Callback callback;
    std::uint64_t sequence = kVacant;
    /// The next slot in the same tick's wheel list; kNoSlot at its tail.
    std::uint32_t next = kNoSlot;
    bool cancelled = false;
  };
  /// A heap-tier event.
  struct Entry {
    Time time;
    std::uint64_t sequence;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;  // FIFO within a timestamp
    }
  };
  /// One tick's FIFO list of slots.
  struct Tick {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  Time now_ = 0;
  std::uint64_t next_sequence_ = 0;
  /// Tick t's list lives at t % kWheelTicks; the window [now, now +
  /// kWheelTicks), cut off at the top of the clock, holds one tick per
  /// list, so a list never mixes ticks.
  std::array<Tick, kWheelTicks> wheel_;
  /// Bit t % kWheelTicks is set while tick t's list is non-empty.
  std::array<std::uint64_t, kOccupancyWords> occupied_{};
  std::size_t wheel_events_ = 0;
  /// Events at least kWheelTicks ticks out: a binary heap under Later.
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  obs::EventLog* log_ = nullptr;
};

}  // namespace miro::sim
