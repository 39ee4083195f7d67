#include "obs/regression.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/error.hpp"
#include "common/table.hpp"

namespace miro::obs {

bool is_perf_unit(const std::string& unit) {
  if (unit == "ns" || unit == "us" || unit == "ms" || unit == "s") return true;
  if (unit.size() >= 2 && unit.compare(unit.size() - 2, 2, "/s") == 0)
    return true;
  return false;
}

bool is_memory_unit(const std::string& unit) {
  return unit == "bytes" ||
         (unit.size() > 6 && unit.compare(0, 6, "bytes/") == 0);
}

RowKind classify_unit(const std::string& unit) {
  if (is_perf_unit(unit)) {
    const bool rate =
        unit.size() >= 2 && unit.compare(unit.size() - 2, 2, "/s") == 0;
    return rate ? RowKind::Rate : RowKind::Time;
  }
  if (is_memory_unit(unit)) return RowKind::Memory;
  return RowKind::Value;
}

namespace {

/// Relative growth tolerated on memory-unit rows. Byte rows come from
/// deterministic walks, so this can stay tight even where the time
/// threshold is loosened for noisy shared runners.
constexpr double kMemoryThreshold = 0.25;
/// Ignore memory rows whose baseline is below this many bytes (or
/// bytes-per-unit for derived rows).
constexpr double kMemoryMinMagnitude = 64.0;

const JsonValue& bench_map(const JsonValue& doc) {
  require(doc.is_object(), "regression: snapshot is not a JSON object");
  return doc.at("benches");
}

}  // namespace

std::size_t RegressionReport::regressions() const {
  std::size_t n = 0;
  for (const RegressionRow& row : rows)
    if (row.regressed) ++n;
  return n;
}

std::size_t RegressionReport::regressions(RowKind kind) const {
  std::size_t n = 0;
  for (const RegressionRow& row : rows)
    if (row.regressed && row.kind == kind) ++n;
  return n;
}

RegressionReport compare_bench_json(const JsonValue& baseline,
                                    const JsonValue& current,
                                    const RegressionOptions& options) {
  RegressionReport report;
  const JsonValue& base_benches = bench_map(baseline);
  const JsonValue& cur_benches = bench_map(current);

  for (const auto& [bench_name, base_bench] : base_benches.members()) {
    const JsonValue* cur_bench = cur_benches.get(bench_name);
    if (cur_bench == nullptr) {
      report.missing_benches.push_back(bench_name);
      continue;
    }
    // Index current rows by name for the join.
    const JsonValue& cur_results = cur_bench->at("results");
    auto find_current = [&](const std::string& name) -> const JsonValue* {
      for (std::size_t i = 0; i < cur_results.size(); ++i) {
        if (cur_results.at(i).at("name").as_string() == name)
          return &cur_results.at(i);
      }
      return nullptr;
    };

    const JsonValue& base_results = base_bench.at("results");
    for (std::size_t i = 0; i < base_results.size(); ++i) {
      const JsonValue& base_row = base_results.at(i);
      const std::string name = base_row.at("name").as_string();
      const JsonValue* cur_row = find_current(name);
      if (cur_row == nullptr) {
        report.missing_rows.push_back(bench_name + "/" + name);
        continue;
      }
      RegressionRow row;
      row.bench = bench_name;
      row.name = name;
      row.unit = base_row.at("unit").as_string();
      // A non-finite value was serialized as null; treat as absent-but-
      // matching so a nan in both snapshots doesn't wedge the gate.
      const JsonValue& bv = base_row.at("value");
      const JsonValue& cv = cur_row->at("value");
      row.kind = classify_unit(row.unit);
      if (bv.is_null() || cv.is_null()) {
        row.gated = false;
        report.rows.push_back(row);
        continue;
      }
      row.baseline = bv.as_number();
      row.current = cv.as_number();
      row.change = row.baseline == 0
                       ? (row.current == 0 ? 0 : 1.0)
                       : (row.current - row.baseline) / std::abs(row.baseline);
      const bool perf = row.kind == RowKind::Time || row.kind == RowKind::Rate;
      if (options.values_only) {
        // Determinism gate: wall-clock rows are expected to differ across
        // thread counts; memory rows are deterministic walks and value rows
        // are reproduction outputs — both must be bit-identical.
        row.gated = !perf;
        if (row.gated) row.regressed = row.current != row.baseline;
      } else if (perf) {
        row.gated = true;
        if (std::abs(row.baseline) >= options.min_magnitude) {
          const double worse =
              row.kind == RowKind::Rate ? -row.change : row.change;
          row.regressed = worse > options.threshold;
        }
      } else if (row.kind == RowKind::Memory) {
        row.gated = true;
        if (std::abs(row.baseline) >= kMemoryMinMagnitude)
          row.regressed = row.change > kMemoryThreshold;
      }
      report.rows.push_back(row);
    }
  }
  return report;
}

void RegressionReport::write_text(std::ostream& out) const {
  std::vector<const RegressionRow*> ordered;
  for (const RegressionRow& row : rows) ordered.push_back(&row);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const RegressionRow* a, const RegressionRow* b) {
                     if (a->regressed != b->regressed) return a->regressed;
                     return std::abs(a->change) > std::abs(b->change);
                   });
  TextTable table({"bench", "row", "unit", "baseline", "current", "change",
                   "verdict"});
  std::size_t shown = 0;
  for (const RegressionRow* row : ordered) {
    // Show every regression plus the ten biggest movers for context.
    if (!row->regressed && shown >= 10) continue;
    ++shown;
    char change[32];
    std::snprintf(change, sizeof(change), "%+.1f%%", row->change * 100);
    table.add_row({row->bench, row->name, row->unit,
                   TextTable::num(row->baseline), TextTable::num(row->current),
                   change,
                   row->regressed ? "REGRESSED"
                                  : (row->gated ? "ok" : "info")});
  }
  table.print(out);
  for (const std::string& name : missing_benches)
    out << "MISSING BENCH: " << name << "\n";
  for (const std::string& name : missing_rows)
    out << "MISSING ROW: " << name << "\n";
  if (ok()) {
    out << "perf gate OK: " << rows.size() << " rows compared, no row worse "
        << "than the threshold\n";
  } else {
    // Every violation is listed above; the exit line gives the triage
    // breakdown so a mixed memory+time regression is obvious at a glance.
    out << "perf gate FAIL: " << regressions() << " regressed row(s) (time "
        << regressions(RowKind::Time) << ", rate "
        << regressions(RowKind::Rate) << ", memory "
        << regressions(RowKind::Memory) << ", value "
        << regressions(RowKind::Value) << "), "
        << missing_rows.size() + missing_benches.size() << " missing\n";
  }
}

}  // namespace miro::obs
