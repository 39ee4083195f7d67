// Unified metrics registry for the MIRO control plane.
//
// Counters, gauges, and histograms registered by name, replacing ad-hoc
// printf rendering of the scattered stats structs (BusStats,
// MiroAgent::Stats) with one export surface: a fixed-width text table for
// humans and a JSON snapshot for offline analysis / CI artifacts. The stats
// structs remain the hot-path storage (plain member increments, no lookup
// cost); their owners export them into a registry on demand — see
// MessageBus::export_metrics and MiroAgent::export_metrics.
//
// References returned by counter()/gauge()/histogram() stay valid for the
// registry's lifetime (node-based storage), so callers may cache them.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace miro::obs {

/// Monotonically increasing count. set() exists for snapshot-style export
/// of an externally maintained total.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  void set(std::uint64_t value) { value_ = value; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Point-in-time scalar.
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Sample distribution with power-of-two buckets (matching the repo's
/// log2_histogram convention): bucket i counts samples in [2^i, 2^(i+1)),
/// with a dedicated underflow bucket for samples < 1.
class Histogram {
 public:
  void observe(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }
  std::uint64_t underflow() const { return underflow_; }
  /// Nearest-rank quantile estimate, `q` in [0, 100]: locates the bucket
  /// holding the rank and interpolates linearly within its [2^i, 2^(i+1))
  /// range, clamped to [min, max] (exact for single-sample buckets at the
  /// bucket midpoint; q <= 0 yields min, q >= 100 yields max, and ranks in
  /// the underflow bucket collapse to min). Deterministic, so quantile rows
  /// are byte-comparable across runs.
  double quantile(double q) const;
  double p50() const { return quantile(50); }
  double p90() const { return quantile(90); }
  double p99() const { return quantile(99); }
  /// Count of bucket [2^i, 2^(i+1)); zero for any i beyond the max seen.
  std::uint64_t bucket(std::size_t i) const {
    return i < buckets_.size() ? buckets_[i] : 0;
  }
  std::size_t bucket_count() const { return buckets_.size(); }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t underflow_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::vector<std::uint64_t> buckets_;
};

class MetricsRegistry {
 public:
  /// Finds or creates the named metric. A name is bound to one kind for the
  /// registry's lifetime; asking for it as another kind throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Const lookups for readers of an already-populated registry; throw if
  /// the name is absent or bound to a different kind.
  const Counter& counter(const std::string& name) const;
  const Gauge& gauge(const std::string& name) const;
  const Histogram& histogram(const std::string& name) const;

  bool contains(const std::string& name) const;
  std::size_t size() const;

  /// Fixed-width name/type/value table, rows sorted by name.
  void write_text(std::ostream& out) const;
  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  void write_json(std::ostream& out) const;

 private:
  // Separate node-based maps per kind: references handed out stay stable,
  // and export order is deterministic (sorted by name).
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace miro::obs
