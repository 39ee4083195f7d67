// Perf-regression gate CLI around obs::compare_bench_json.
//
//   ./bench_compare baseline.json current.json [--threshold 0.25]
//                   [--min-magnitude X] [--values-only]
//
// Exit 0 when the gate passes, 1 on any regression / missing row, 2 on
// bad usage (an unknown flag, or a threshold or magnitude that is not a
// non-negative number) or unreadable input. CI runs this against the
// checked-in BENCH_PR3.json baseline; a >threshold slowdown on any gated
// (perf-unit) row fails the build, and byte-unit rows ("bytes",
// "bytes/route", "bytes/edge") are gated separately at 25% growth — memory
// rows come from deterministic container walks, so their gate stays tight
// even when the time threshold is loosened for noisy shared runners. All
// violations are reported in one run with a per-kind summary count in the
// exit message. --values-only is the determinism gate: it ignores
// wall-clock rows and requires every other row — byte rows included — to
// match exactly; used to compare a --threads 4 suite run against the
// --threads 1 run.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "obs/regression.hpp"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: bench_compare BASELINE.json CURRENT.json "
               "[--threshold X] [--min-magnitude X] [--values-only]\n");
  std::exit(2);
}

[[noreturn]] void fail(const std::string& why) {
  std::fprintf(stderr, "bench_compare: %s\n", why.c_str());
  std::exit(2);
}

miro::JsonValue load(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return miro::JsonValue::parse(buffer.str());
  } catch (const miro::Error& error) {
    fail(path + ": " + error.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  miro::obs::RegressionOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    auto non_negative = [&]() -> double {
      const char* text = value();
      const std::optional<double> parsed = miro::parse_finite(text);
      if (!parsed || *parsed < 0)
        fail(flag + " expects a non-negative number, got '" + text + "'");
      return *parsed;
    };
    if (flag == "--threshold") options.threshold = non_negative();
    else if (flag == "--min-magnitude") options.min_magnitude = non_negative();
    else if (flag == "--values-only") options.values_only = true;
    else if (!flag.empty() && flag[0] == '-') fail("unknown flag " + flag);
    else if (baseline_path.empty()) baseline_path = flag;
    else if (current_path.empty()) current_path = flag;
    else usage();
  }
  if (baseline_path.empty() || current_path.empty()) usage();

  const miro::JsonValue baseline = load(baseline_path);
  const miro::JsonValue current = load(current_path);
  const miro::obs::RegressionReport report =
      miro::obs::compare_bench_json(baseline, current, options);
  report.write_text(std::cout);
  return report.ok() ? 0 : 1;
}
