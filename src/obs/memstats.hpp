// Memory observability for the MIRO control plane.
//
// The profile plane (obs/profile.hpp) answers *where wall-clock time goes*;
// this layer answers *where the bytes live*. A MemoryRegistry holds named
// per-subsystem accounts (common/memtrack.hpp MemCounters: current/peak
// bytes) fed by the memory-dominant owners — topology::AsGraph, the
// core::RouteStore tree cache, sessioned BGP Adj-RIB-In, churn replay
// state — and a process-level RSS sampler read at profiler span boundaries.
//
// Zero cost when disabled, on the same contract as ProfileRegistry: every
// instrumentation site goes through a nullable `MemoryRegistry*` (null by
// default) and pays a single branch; nothing is read or allocated unless a
// registry is attached. Accounting only *observes* container state — it
// never feeds back into simulation behaviour, so accounted and unaccounted
// runs are bit-identical (asserted in tests/memstats_test.cpp).
//
// Accounts are fed by walks (see common/memtrack.hpp): owners expose
// memory_bytes() methods computed from container capacities and
// set_current() the result at sample points. Walks are deterministic at any
// thread count, which is why bench JSON byte rows come from walks and never
// from RSS.
//
// RSS is the one account that is *not* deterministic: it reflects the whole
// process (allocator slack, code pages, whatever the OS maps), so it is
// surfaced in text tables and metrics gauges but deliberately kept out of
// bench result rows gated by the bit-identical determinism contract.
//
// Attachment is process-wide through obs::memory()/obs::set_memory(),
// resolved through a thread-local slot exactly like obs::profile(): worker
// threads of the parallel layer see null, so sampling and account mutation
// stay single-threaded on the attaching thread.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "common/memtrack.hpp"
#include "obs/metrics.hpp"

namespace miro::obs {

class MemoryRegistry {
 public:
  /// Returns the account named `name`, creating it on first use. The
  /// reference is stable for the registry's lifetime (node-based map), so
  /// owners may hold it across calls.
  MemCounters& account(const std::string& name) { return accounts_[name]; }

  /// All accounts, sorted by name.
  const std::map<std::string, MemCounters>& accounts() const {
    return accounts_;
  }

  /// Sum of all accounts' current bytes (tracked heap, not process RSS).
  std::uint64_t tracked_bytes() const;

  /// Reads the process resident set size: current VmRSS from
  /// /proc/self/status and peak from getrusage(ru_maxrss), keeping the
  /// high-water mark across samples. Called automatically at top-level
  /// profiler span boundaries while both registries are attached; safe to
  /// call directly. On platforms without either source the sample is a
  /// no-op (counters stay 0).
  void sample_rss();
  std::uint64_t rss_bytes() const { return rss_bytes_; }
  std::uint64_t rss_peak_bytes() const { return rss_peak_bytes_; }
  std::uint64_t rss_samples() const { return rss_samples_; }

  /// Fixed-width account table: account / current / peak, sorted by name, with a tracked-total row and (when sampled) the RSS
  /// current/peak lines.
  void write_text(std::ostream& out) const;

  /// Exports accounts into a MetricsRegistry: `<prefix>.<name>.bytes` /
  /// `.peak_bytes` gauges per account, plus
  /// `<prefix>.tracked_bytes`, and `<prefix>.rss_bytes` /
  /// `.rss_peak_bytes` gauges with an `.rss_samples` counter when the
  /// sampler has run.
  void export_metrics(MetricsRegistry& registry,
                      const std::string& prefix = "memory") const;

  /// Drops all accounts and RSS samples.
  void reset();

 private:
  std::map<std::string, MemCounters> accounts_;
  std::uint64_t rss_bytes_ = 0;
  std::uint64_t rss_peak_bytes_ = 0;
  std::uint64_t rss_samples_ = 0;
};

/// The registry instrumentation sites consult on this thread. Null (memory
/// accounting disabled) until set_memory() attaches one; the caller keeps
/// ownership and must detach (set_memory(nullptr)) before destroying it.
/// Worker threads always see null — accounts are single-threaded state and
/// footprint walks happen on the attaching thread after joins.
MemoryRegistry* memory();
void set_memory(MemoryRegistry* registry);

}  // namespace miro::obs
