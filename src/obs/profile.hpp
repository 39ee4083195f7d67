// Wall-clock span profiler for the MIRO control plane.
//
// The event log (obs/event_log.hpp) answers *what the control plane did*
// in simulated time; this layer answers *where real time goes*.
// Instrumented phases — topology generation/inference, BGP propagation
// rounds, scheduler run loops, negotiation handling, the eval pipelines —
// open a RAII ScopedSpan that records nested begin/end wall-clock intervals
// into a ProfileRegistry. The registry aggregates per-name and per-category
// statistics with *self-time* attribution (a parent's self time excludes its
// children), and keeps the raw span log for the Chrome-trace exporter.
//
// Zero cost when disabled, on the same contract as the event log: every
// instrumentation site goes through a nullable `ProfileRegistry*` (null by
// default) and pays a single branch; no clock is read and nothing is
// allocated unless a registry is attached. The profiler only *reads* the
// wall clock — it never feeds back into simulation state, so profiled and
// unprofiled runs are bit-identical in sim behaviour (asserted in
// tests/profile_test.cpp).
//
// Free functions deep in the libraries (topo::generate, the eval pipelines)
// cannot thread a registry pointer through their signatures, so attachment
// is process-wide: obs::set_profile() installs the registry and
// obs::profile() is the nullable pointer every site checks.
//
// Threads: a ProfileRegistry is single-threaded, but profile() resolves
// through a thread-local slot so the parallel layer (common/parallel.hpp)
// can profile worker threads without locking. set_profile() binds the
// registry to the calling thread and installs a par::WorkerContext that
// gives each pool chunk its own private ProfileRegistry and merges them
// (merge_from, in chunk order) into the attached registry when the region
// joins. On threads with nothing installed profile() is null, so workers
// keep the zero-cost contract when profiling is disabled. Spans recorded
// inside a parallel region are merged flat — they do not contribute child
// time to the span open on the calling thread.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace miro::obs {

class ProfileRegistry {
 public:
  /// Raw span log entry, in completion order. Timestamps are nanoseconds
  /// since the registry's construction (or since set_clock()'s origin).
  struct SpanRecord {
    const char* name = "";      ///< static literal; never owned
    const char* category = "";  ///< static literal; never owned
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t depth = 0;    ///< nesting depth at begin (0 = top level)
  };

  /// Aggregated accounting for one span name (or one category).
  struct SpanStats {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;  ///< sum of wall time including children
    std::uint64_t self_ns = 0;   ///< sum of wall time excluding children
    std::uint64_t max_ns = 0;    ///< longest single span (total time)
  };

  /// `max_spans` bounds the raw span log (aggregation is never bounded);
  /// once full, further spans still aggregate but are dropped from the log.
  explicit ProfileRegistry(std::size_t max_spans = 1 << 20);

  /// Replaces the wall clock with a deterministic source (tests). The
  /// callback returns nanoseconds since an arbitrary, fixed origin.
  void set_clock(std::function<std::uint64_t()> now_ns);

  /// Aggregates, keyed by span name / by category, sorted (std::map).
  const std::map<std::string, SpanStats>& by_name() const { return by_name_; }
  const std::map<std::string, SpanStats>& by_category() const {
    return by_category_;
  }

  /// Raw completed spans, in completion order (children before parents).
  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::uint64_t spans_recorded() const { return recorded_; }
  std::uint64_t spans_dropped() const { return dropped_; }
  /// Spans begun but not yet ended (should be 0 between phases).
  std::size_t open_spans() const { return stack_.size(); }

  /// Fixed-width summary table: name / count / total / self / mean / max
  /// (milliseconds), one section per category, sorted by name.
  void write_text(std::ostream& out) const;

  /// Drops all recorded spans and aggregates (open spans survive).
  void reset();

  /// Folds another registry's completed spans into this one: per-name and
  /// per-category aggregates are summed, and the other registry's span log
  /// is appended (subject to this registry's max_spans bound) with
  /// timestamps shifted onto this registry's clock origin so Chrome-trace
  /// export stays on one timeline. `other` must have no open spans. Used by
  /// the parallel layer to drain per-worker registries after a join.
  void merge_from(const ProfileRegistry& other);

 private:
  friend class ScopedSpan;

  std::uint64_t now_ns() const;
  void begin_span(const char* name, const char* category);
  void end_span();

  struct OpenSpan {
    const char* name;
    const char* category;
    std::uint64_t begin_ns;
    std::uint64_t child_ns;  ///< accumulated total time of finished children
  };

  std::function<std::uint64_t()> clock_;  ///< empty = steady_clock
  std::uint64_t origin_ns_ = 0;
  std::vector<OpenSpan> stack_;
  std::vector<SpanRecord> spans_;
  std::size_t max_spans_;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::map<std::string, SpanStats> by_name_;
  std::map<std::string, SpanStats> by_category_;
};

/// RAII span: begins on construction, ends on destruction. With a null
/// registry both are a single branch — the instrumentation idiom is
///   obs::ScopedSpan span(obs::profile(), "eval/path_diversity", "eval");
/// Name and category must be string literals (stored, never copied).
class ScopedSpan {
 public:
  ScopedSpan(ProfileRegistry* registry, const char* name,
             const char* category = "")
      : registry_(registry) {
    if (registry_ != nullptr) registry_->begin_span(name, category);
  }
  ~ScopedSpan() {
    if (registry_ != nullptr) registry_->end_span();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ProfileRegistry* registry_;
};

/// The registry instrumentation sites consult on this thread. Null
/// (profiling disabled) until set_profile() attaches one; the caller keeps
/// ownership and must detach (set_profile(nullptr)) before destroying it.
/// Worker threads see the per-chunk registry the parallel layer installs
/// for the duration of a chunk, and null otherwise.
///
/// While a registry is attached, top-level parallel regions must be entered
/// from one thread at a time: the installed WorkerContext keeps shared
/// per-region state, and concurrent regions would clobber each other's
/// registries (enforced by a require() in region_begin).
ProfileRegistry* profile();
void set_profile(ProfileRegistry* registry);

}  // namespace miro::obs
