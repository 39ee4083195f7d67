// Perf-regression gate over merged bench-suite JSON snapshots.
//
// The bench suite (bench/run_suite) runs every bench in one process and
// writes their rows into one document:
//   {"suite":"miro-bench","schema":1,"config":{...},
//    "benches":{"<bench>":{"config":{...},
//               "results":[{"name":...,"value":...,"unit":...},...],
//               "profile":{...}}}}
// This module compares such a snapshot against a checked-in baseline
// (BENCH_PR3.json) and fails on regressions beyond a relative threshold.
// A row's *unit* decides its kind and direction: time units (ns/us/ms/s)
// regress upward, rate units (anything ending in "/s") regress downward,
// memory units ("bytes" or "bytes/..." derivatives like bytes/route) regress
// upward beyond 25% growth (rows whose baseline is under 64 bytes are
// ignored), and all other rows are compared informationally only (counts
// and success rates are deterministic reproduction outputs, not perf — they
// drift when behaviour changes, which the report surfaces without failing
// the gate outside `values_only`).
//
// Memory rows are derived from deterministic container walks (never RSS),
// so under `values_only` they are held to exact equality like value rows —
// a byte row that differs across thread counts is a real bug.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace miro::obs {

struct RegressionOptions {
  /// Relative slowdown tolerated on perf-gated rows: fail when
  /// worse-direction change exceeds `threshold` (0.25 = +25%).
  double threshold = 0.25;
  /// Ignore perf-gated rows whose baseline magnitude is below this
  /// (relative noise on a 0.4ms row is meaningless).
  double min_magnitude = 1.0;
  /// Determinism mode: perf (time/rate) rows become informational and every
  /// other row — including memory rows, which are deterministic walks —
  /// must match EXACTLY; the contract that two runs of the same suite at
  /// different --threads counts produce identical results. Missing
  /// rows/benches still fail. Overrides threshold.
  bool values_only = false;
};

/// Row classification by unit, deciding threshold and direction.
enum class RowKind {
  Time,    ///< ns/us/ms/s — higher is worse
  Rate,    ///< anything ending in "/s" — lower is worse
  Memory,  ///< "bytes" or "bytes/..." — higher is worse, own thresholds
  Value,   ///< everything else — informational unless values_only
};

struct RegressionRow {
  std::string bench;
  std::string name;
  std::string unit;
  RowKind kind = RowKind::Value;
  double baseline = 0;
  double current = 0;
  double change = 0;       ///< signed relative change, + = larger value
  bool gated = false;      ///< held to a threshold under current options
  bool regressed = false;  ///< beyond threshold in the worse direction
};

struct RegressionReport {
  std::vector<RegressionRow> rows;          ///< every row seen in baseline
  std::vector<std::string> missing_rows;    ///< "<bench>/<name>" gone from current
  std::vector<std::string> missing_benches; ///< benches gone from current

  bool ok() const { return regressions() == 0 && missing_rows.empty() &&
                           missing_benches.empty(); }
  std::size_t regressions() const;
  /// Regressed rows of one kind (for the per-kind triage summary).
  std::size_t regressions(RowKind kind) const;

  /// Human-readable verdict table listing EVERY violation (regressed rows
  /// first, then the worst movers), ending with an OK/FAIL line that breaks
  /// the violation count down by row kind.
  void write_text(std::ostream& out) const;
};

/// True when rows with this unit are perf-gated (time or rate).
bool is_perf_unit(const std::string& unit);
/// True for byte-denominated rows ("bytes", "bytes/route", "bytes/edge").
bool is_memory_unit(const std::string& unit);
/// Unit → row kind (perf wins over memory, so "bytes/s" stays a rate).
RowKind classify_unit(const std::string& unit);

/// Compares two merged suite documents (see format above). Throws
/// miro::Error when either document is structurally malformed.
RegressionReport compare_bench_json(const JsonValue& baseline,
                                    const JsonValue& current,
                                    const RegressionOptions& options = {});

}  // namespace miro::obs
