// Typed point-to-point message delivery over the scheduler.
//
// Models the control-plane sessions between MIRO speakers: delivery with a
// per-link propagation delay, an optional link-down state (used to exercise
// the soft-state keep-alive teardown: "when A can no longer reach B, the
// active tunnel tear-down message itself may not be able to reach AS B",
// Section 4.3), and an optional FaultPlane for per-message loss, duplication,
// and reorder-jitter (see netsim/fault_injection.hpp). Without a fault plane
// delivery is ordered per link; with jitter enabled copies may overtake each
// other, which is exactly the regime the retransmission layer must survive.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "netsim/fault_injection.hpp"
#include "netsim/scheduler.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace miro::sim {

/// Per-bus delivery accounting. Every copy put on the wire has exactly one
/// terminal outcome; once all in-flight copies have drained,
///   sent + duplicates_scheduled ==
///       delivered + dropped_link_down + dropped_faults + dropped_unattached.
/// (A fault-plane duplication schedules an extra copy, which is counted in
/// duplicates_scheduled so its terminal outcome does not skew the balance.)
struct BusStats {
  std::uint64_t sent = 0;                  ///< send() calls
  std::uint64_t duplicates_scheduled = 0;  ///< extra fault-plane copies
  std::uint64_t delivered = 0;             ///< copies handed to a handler
  std::uint64_t dropped_link_down = 0;     ///< lost to a partitioned link
  std::uint64_t dropped_faults = 0;        ///< discarded by the fault plane
  std::uint64_t dropped_unattached = 0;    ///< no handler at the destination
};

template <typename Message>
class MessageBus {
 public:
  using Handler = std::function<void(EndpointId from, const Message&)>;

  explicit MessageBus(Scheduler& scheduler, Time default_delay = 10)
      : scheduler_(&scheduler), default_delay_(default_delay) {}

  /// Registers the receive handler for an endpoint (replacing any previous).
  void attach(EndpointId endpoint, Handler handler) {
    require(static_cast<bool>(handler), "MessageBus::attach: empty handler");
    handlers_[endpoint] = std::move(handler);
  }

  /// Sends a message; it is delivered after the pair's delay unless the
  /// pair's link is down or the fault plane discards it. Messages to
  /// unattached endpoints are dropped (and counted).
  void send(EndpointId from, EndpointId to, Message message) {
    ++stats_.sent;
    if (log_ != nullptr) record(obs::EventKind::BusSend, from, to);
    if (is_down(from, to)) {  // lost: the link is partitioned
      drop(from, to, stats_.dropped_link_down, "link_down");
      return;
    }
    std::vector<Time> copies{0};
    if (fault_plane_ != nullptr) {
      copies = fault_plane_->plan(from, to, scheduler_->now());
      if (copies.empty()) {
        drop(from, to, stats_.dropped_faults, "faults");
        return;
      }
      if (copies.size() > 1) {
        stats_.duplicates_scheduled += copies.size() - 1;
        if (log_ != nullptr) {
          record(obs::EventKind::BusDuplicate, from, to,
                 static_cast<std::int64_t>(copies.size()));
        }
      }
    }
    const Time delay = delay_of(from, to);
    for (std::size_t i = 0; i + 1 < copies.size(); ++i)
      schedule_delivery(from, to, delay + copies[i], message);
    schedule_delivery(from, to, delay + copies.back(), std::move(message));
  }

  /// Sets the propagation delay between two endpoints (both directions).
  void set_delay(EndpointId a, EndpointId b, Time delay) {
    delays_[key(a, b)] = delay;
  }

  /// Partitions or heals the link between two endpoints.
  void set_link_down(EndpointId a, EndpointId b, bool down) {
    if (down) {
      down_.insert(key(a, b));
    } else {
      down_.erase(key(a, b));
    }
  }

  bool is_down(EndpointId a, EndpointId b) const {
    return down_.count(key(a, b)) != 0;
  }

  /// Installs (or clears, with nullptr) the fault plane consulted per send.
  /// The plane must outlive the bus.
  void set_fault_plane(FaultPlane* plane) { fault_plane_ = plane; }
  FaultPlane* fault_plane() const { return fault_plane_; }

  /// Attaches (or clears, with nullptr) an event log observing every
  /// send/deliver/drop/duplicate on this bus. A null log costs one branch
  /// per event and allocates nothing.
  void set_event_log(obs::EventLog* log) { log_ = log; }

  const BusStats& stats() const { return stats_; }

  /// Snapshots the delivery accounting into `registry` as counters named
  /// `<prefix>.sent`, `<prefix>.delivered`, ... (safe to call repeatedly;
  /// values are overwritten, and nothing references the bus afterwards).
  void export_metrics(obs::MetricsRegistry& registry,
                      const std::string& prefix = "bus") const {
    registry.counter(prefix + ".sent").set(stats_.sent);
    registry.counter(prefix + ".duplicates_scheduled")
        .set(stats_.duplicates_scheduled);
    registry.counter(prefix + ".delivered").set(stats_.delivered);
    registry.counter(prefix + ".dropped_link_down")
        .set(stats_.dropped_link_down);
    registry.counter(prefix + ".dropped_faults").set(stats_.dropped_faults);
    registry.counter(prefix + ".dropped_unattached")
        .set(stats_.dropped_unattached);
  }

  Scheduler& scheduler() { return *scheduler_; }

 private:
  void drop(EndpointId from, EndpointId to, std::uint64_t& bucket,
            const char* reason) {
    ++bucket;
    if (log_ != nullptr) record(obs::EventKind::BusDrop, from, to, 0, reason);
  }

  void record(obs::EventKind kind, EndpointId from, EndpointId to,
              std::int64_t value = 0, const char* detail = "") {
    log_->record({.time = scheduler_->now(),
                  .kind = kind,
                  .actor = from,
                  .peer = to,
                  .value = value,
                  .detail = detail});
  }

  void schedule_delivery(EndpointId from, EndpointId to, Time delay,
                         Message message) {
    scheduler_->after(delay, [this, from, to, msg = std::move(message)]() {
      if (is_down(from, to)) {  // partitioned while in flight
        drop(from, to, stats_.dropped_link_down, "link_down");
        return;
      }
      auto it = handlers_.find(to);
      if (it == handlers_.end()) {
        drop(from, to, stats_.dropped_unattached, "unattached");
        return;
      }
      ++stats_.delivered;
      if (log_ != nullptr) record(obs::EventKind::BusDeliver, from, to);
      if (fault_plane_ != nullptr) fault_plane_->note_delivered(from, to);
      it->second(from, msg);
    });
  }

  /// Order-independent pair key (links are symmetric).
  static std::uint64_t key(EndpointId a, EndpointId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  Time delay_of(EndpointId a, EndpointId b) const {
    auto it = delays_.find(key(a, b));
    return it == delays_.end() ? default_delay_ : it->second;
  }

  Scheduler* scheduler_;
  Time default_delay_;
  FaultPlane* fault_plane_ = nullptr;
  obs::EventLog* log_ = nullptr;
  std::unordered_map<EndpointId, Handler> handlers_;
  std::unordered_map<std::uint64_t, Time> delays_;
  std::unordered_set<std::uint64_t> down_;
  BusStats stats_;
};

}  // namespace miro::sim
