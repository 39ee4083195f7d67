// Shared harness of the end-to-end benchmark: input RNG, span recording,
// counters, and the workload interface main.cpp drives.
//
// A workload calls each layer only through that layer's public functions,
// and wraps every call it makes into a layer in a span named
// "<module>.<function>" (for example "bgp.StableRouteSolver.solve") whose
// category is the module. Trivial accessors the benchmark uses to draw
// inputs (reachable, path_of, has_edge) are not wrapped: they count as the
// benchmark's own time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/profile.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64: the benchmark draws its inputs with its own generator so they
/// never change when the libraries under test change theirs.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// Seed of one sub-stream (op `index` of stream `salt`) of the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t index);

/// Records the benchmark's spans in a private obs::ProfileRegistry when
/// enabled. The registry is never installed with obs::set_profile, so the
/// spans inside src/ stay off and only the benchmark's own calls into the
/// layers are recorded. A disabled tracer costs one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  miro::obs::ProfileRegistry* registry() { return registry_.get(); }

  /// Runs `fn` inside a span `name` of category `module` (both literals).
  template <typename Fn>
  decltype(auto) call(const char* module, const char* name, Fn&& fn) {
    miro::obs::ScopedSpan span(registry_.get(), name, module);
    return std::forward<Fn>(fn)();
  }

 private:
  std::unique_ptr<miro::obs::ProfileRegistry> registry_;
};

/// Per-name span aggregates of the traced run: the set-up's and the timed
/// ops', kept apart.
struct SpanTotals {
  using ByName = std::map<std::string, miro::obs::ProfileRegistry::SpanStats>;
  ByName setup;
  ByName ops;

  /// Total (inclusive) ms and calls of `name` over the timed ops.
  double ms(const std::string& name) const;
  std::uint64_t calls(const std::string& name) const;
  /// Mean ms per call of `name` during set-up.
  double setup_mean_ms(const std::string& name) const;
};

/// Named metric values in insertion order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_.push_back({name, value, unit});
  }
  struct Value {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Value>& values() const { return values_; }

 private:
  std::vector<Value> values_;
};

/// Exact integer counts, which must repeat between runs of one seed and
/// between the traced and untraced runs.
using Counts = std::map<std::string, std::uint64_t>;

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

class Workload {
 public:
  virtual ~Workload() = default;
  /// Unit of work_per_s (avoid tuples, destinations, scenarios).
  virtual const char* work_unit() const = 0;
  /// Ops per second of --seconds: the op count is seconds times this rate,
  /// fixed in advance so counts and memory never depend on speed.
  virtual double nominal_ops_per_s() const = 0;
  /// Node count of the workload's graph (destinations are drawn from it).
  virtual std::uint32_t node_count() const = 0;

  /// Builds the long-lived state, replacing any earlier set-up.
  virtual void setup(Tracer& tracer) = 0;
  /// Runs one op on `destination`; returns the work units it finished.
  virtual std::uint64_t run_op(std::uint32_t destination, std::uint64_t seed,
                               Tracer& tracer) = 0;
  /// Checks the last op's outputs against an independent oracle, outside
  /// the timed op; returns an empty string when they hold.
  virtual std::string check_op() = 0;
  /// Zeroes the counters (after the warm-up op).
  virtual void reset_counts() = 0;

  virtual Counts counts() const = 0;
  /// Per-layer metrics from the counters and the traced run's spans.
  virtual void layer_metrics(const SpanTotals& spans, std::size_t ops,
                             Metrics& out) const = 0;
};

std::unique_ptr<Workload> make_avoid_internet();
std::unique_ptr<Workload> make_verify_internet(bool inject_export_bug);
std::unique_ptr<Workload> make_live_planes();

}  // namespace perfbench
