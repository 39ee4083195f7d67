// The interface between the suite (bench_suite.cpp, driven by the
// `run_suite` executable) and the reproduction benches it runs in-process:
//   - SuiteArgs / parse_suite_args: the one flag parser;
//   - SharedInputs: the graphs and ExperimentPlans run_suite builds once per
//     profile, before any bench starts its clock;
//   - Run: a bench's handle on those inputs and on the result rows it
//     reports ({name, value, unit});
//   - add_registry_sections: a bench's profile and memory sections;
//   - Stopwatch: the only clock the bench code reads;
//   - bench_table / select_benches / run_suite: the suite runner.
//
//   run_suite [BENCH]... [--profile NAME] [--scale X] [--dests N]
//             [--sources N] [--seed N] [--threads N] [--out PATH]
//             [--save PATH] [--quick | --full]
//
// The defaults are the configuration EXPERIMENTS.md's numbers come from:
// the four paper profiles at scale 0.5, 80 sampled destinations, 40 sources
// per destination, seed 42. --threads is deliberately NOT part of any JSON
// config: results are bit-identical at any thread count (the determinism
// contract tests/parallel_test.cpp enforces), so documents from different
// --threads runs must stay byte-comparable.
#pragma once

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "eval/experiments.hpp"
#include "obs/memstats.hpp"
#include "obs/profile.hpp"
#include "topology/generator.hpp"

namespace miro::bench {

struct SuiteArgs {
  std::vector<std::string> benches;  ///< selected by name; empty = the tier
  std::string profile;               ///< empty = the four paper profiles
  double scale = 0.5;
  std::size_t dests = 80;
  std::size_t sources = 40;
  std::uint64_t seed = 42;
  std::size_t threads = 0;  ///< 0 = MIRO_THREADS, else hardware concurrency
  bool full = false;        ///< --full: the full-tier benches by default
  std::string out;          ///< merged document; empty = none written
  std::string save;         ///< bench_internet_scale saves its graph here

  std::vector<std::string> profiles() const {
    if (!profile.empty()) return {profile};
    return {"gao2000", "gao2003", "gao2005", "agarwal2004"};
  }

  eval::EvalConfig config_for(const std::string& name) const {
    eval::EvalConfig config;
    config.profile = name;
    config.scale = scale;
    config.destination_samples = dests;
    config.sources_per_destination = sources;
    config.seed = seed;
    return config;
  }
};

[[noreturn]] inline void usage_error(const char* argv0,
                                     const std::string& message) {
  std::fprintf(stderr, "%s: %s\n", argv0, message.c_str());
  std::fprintf(stderr,
               "usage: %s [BENCH]... [--profile NAME] [--scale X] "
               "[--dests N] [--sources N] [--seed N] [--threads N] "
               "[--out PATH] [--save PATH] [--quick | --full]\n",
               argv0);
  std::exit(2);
}

/// Strictly parses an unsigned decimal flag value: a sign, trailing
/// garbage or overflow (or 0, when `positive`) is a usage error (exit 2),
/// never a silent 0 or a wrapped-around huge value.
inline std::uint64_t parse_count(const char* argv0, const std::string& flag,
                                 const char* text, bool positive = false) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(text[0])) || *end != '\0' ||
      errno == ERANGE || (positive && value == 0)) {
    usage_error(argv0, flag + " expects a " +
                           (positive ? "positive" : "non-negative") +
                           " integer, got '" + text + "'");
  }
  return value;
}

/// Parses the suite's flags. Usage errors — an unknown flag, a missing or
/// malformed value, an unknown profile — exit 2. Bench names are returned
/// unvalidated; bench_suite.cpp owns the bench table.
inline SuiteArgs parse_suite_args(int argc, char** argv) {
  SuiteArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(argv[0], "missing value for " + flag);
      return argv[++i];
    };
    if (flag.empty() || flag[0] != '-') {
      args.benches.push_back(flag);
    } else if (flag == "--profile") {
      args.profile = value();
      if (args.profile.empty()) usage_error(argv[0], "--profile needs a name");
    } else if (flag == "--scale") {
      const char* text = value();
      char* end = nullptr;
      args.scale = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(args.scale) ||
          args.scale <= 0) {
        usage_error(argv[0], std::string("--scale expects a positive number, "
                                         "got '") + text + "'");
      }
    } else if (flag == "--dests") {
      args.dests = parse_count(argv[0], flag, value());
    } else if (flag == "--sources") {
      args.sources = parse_count(argv[0], flag, value());
    } else if (flag == "--seed") {
      args.seed = parse_count(argv[0], flag, value());
    } else if (flag == "--threads") {
      args.threads = parse_count(argv[0], flag, value(), /*positive=*/true);
    } else if (flag == "--out") {
      args.out = value();
    } else if (flag == "--save") {
      args.save = value();
    } else if (flag == "--quick") {
      // CI scale: one profile, small samples, so the gate measures
      // relative shape, not absolute scale.
      args.profile = "gao2005";
      args.scale = 0.15;
      args.dests = 10;
      args.sources = 8;
    } else if (flag == "--full") {
      // Measured-Internet scale: ~70k ASes. Sample counts stay small — the
      // tier exists to exercise graph-size scaling, not sample breadth.
      args.profile = "internet2006";
      args.scale = 1.0;
      args.dests = 6;
      args.sources = 4;
      args.full = true;
    } else {
      usage_error(argv[0], "unknown flag " + flag);
    }
  }
  for (const std::string& name : args.profiles()) {
    try {
      topo::profile(name, args.scale);
    } catch (const Error& error) {
      usage_error(argv[0], error.what());
    }
  }
  return args;
}

/// Wall-clock timer behind every timing row. The only clock the bench code
/// reads (tools/determinism_allowlist.txt): timings are measured, never fed
/// into a result.
class Stopwatch {
 public:
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// What shared input a bench reads. run_suite builds each input once per
/// profile, before any bench starts its clock, and only when a selected
/// bench reads it.
enum class Input {
  None,            ///< builds its own workload
  Graph,           ///< the profile's graph at the suite scale
  HalfScaleGraph,  ///< the profile's graph at half the suite scale
  Plan,            ///< the profile's ExperimentPlan, tuples sampled
  Avoidance,       ///< the plan with avoid-AS reachability precomputed
};

/// One profile's shared inputs. Its graph at the suite scale is the plan's
/// graph whenever a plan was built, so no graph is generated twice.
struct ProfileInputs {
  std::unique_ptr<eval::ExperimentPlan> plan;
  std::unique_ptr<topo::AsGraph> graph;  ///< only when no plan was built
  std::unique_ptr<topo::AsGraph> half_scale_graph;
};
using SharedInputs = std::map<std::string, ProfileInputs>;

/// A bench's handle on the suite run: the flags, the shared inputs, and the
/// result rows it reports, in order.
class Run {
 public:
  Run(const SuiteArgs& args, const SharedInputs& inputs)
      : args_(args), inputs_(inputs) {}

  const SuiteArgs& args() const { return args_; }

  /// The shared inputs. Each accessor also sets the bench's memory accounts
  /// for what it reads, as building the input inside the bench would.
  const eval::ExperimentPlan& plan(const std::string& profile) const {
    const eval::ExperimentPlan& plan = built(inputs_.at(profile).plan);
    if (obs::MemoryRegistry* mem = obs::memory()) {
      mem->account("topology/graph").set_current(plan.graph().memory_bytes());
      mem->account("eval/trees").set_current(plan.trees_memory_bytes());
    }
    return plan;
  }
  const topo::AsGraph& graph(const std::string& profile) const {
    const ProfileInputs& inputs = inputs_.at(profile);
    return accounted(inputs.plan != nullptr ? inputs.plan->graph()
                                            : built(inputs.graph));
  }
  const topo::AsGraph& half_scale_graph(const std::string& profile) const {
    return accounted(built(inputs_.at(profile).half_scale_graph));
  }

  void add(const std::string& name, double value, const std::string& unit) {
    JsonValue row = JsonValue::make_object();
    row.set("name", JsonValue::make_string(name));
    row.set("value", JsonValue::make_number(value));
    row.set("unit", JsonValue::make_string(unit));
    results_.push_back(std::move(row));
  }

  /// Footprint rows for a graph: resident bytes and bytes per edge.
  /// Capacity walks, so the rows obey the bit-identical determinism
  /// contract (unlike RSS, which never becomes a result row).
  void add_memory_rows(const std::string& prefix, const topo::AsGraph& graph) {
    const double bytes = static_cast<double>(graph.memory_bytes());
    add(prefix + ".graph_bytes", bytes, "bytes");
    if (graph.edge_count() > 0) {
      add(prefix + ".bytes_per_edge",
          bytes / static_cast<double>(graph.edge_count()), "bytes/edge");
    }
  }

  /// Graph rows plus the solved routing state's bytes and bytes per route
  /// (routes = reachable (node, tree) pairs across the plan's trees).
  void add_memory_rows(const std::string& prefix,
                       const eval::ExperimentPlan& plan) {
    add_memory_rows(prefix, plan.graph());
    const double tree_bytes = static_cast<double>(plan.trees_memory_bytes());
    add(prefix + ".trees_bytes", tree_bytes, "bytes");
    if (plan.route_count() > 0) {
      add(prefix + ".bytes_per_route",
          tree_bytes / static_cast<double>(plan.route_count()), "bytes/route");
    }
  }

  const JsonValue& results() const { return results_; }

 private:
  template <typename T>
  static const T& built(const std::unique_ptr<T>& input) {
    require(input != nullptr,
            "run_suite: a bench read an input its table entry does not name");
    return *input;
  }
  static const topo::AsGraph& accounted(const topo::AsGraph& graph) {
    if (obs::MemoryRegistry* mem = obs::memory())
      mem->account("topology/graph").set_current(graph.memory_bytes());
    return graph;
  }

  const SuiteArgs& args_;
  const SharedInputs& inputs_;
  JsonValue results_ = JsonValue::make_array();
};

/// Adds a phase's registry sections to its object in the merged document:
/// "profile" (span aggregates) and "memory" (accounts, plus the RSS when
/// sampled — process-wide, so informational and never a result row).
inline void add_registry_sections(JsonValue& object,
                                  const obs::ProfileRegistry& profile,
                                  const obs::MemoryRegistry& memory) {
  auto number = [](double value) { return JsonValue::make_number(value); };
  JsonValue spans = JsonValue::make_object();
  for (const auto& [name, stats] : profile.by_name()) {
    JsonValue span = JsonValue::make_object();
    span.set("count", number(static_cast<double>(stats.count)));
    span.set("total_ms", number(static_cast<double>(stats.total_ns) / 1e6));
    span.set("self_ms", number(static_cast<double>(stats.self_ns) / 1e6));
    span.set("max_ms", number(static_cast<double>(stats.max_ns) / 1e6));
    spans.set(name, std::move(span));
  }
  JsonValue accounts = JsonValue::make_object();
  for (const auto& [name, counters] : memory.accounts()) {
    JsonValue account = JsonValue::make_object();
    account.set("bytes", number(static_cast<double>(counters.current)));
    account.set("peak_bytes", number(static_cast<double>(counters.peak)));
    accounts.set(name, std::move(account));
  }
  JsonValue mem = JsonValue::make_object();
  mem.set("accounts", std::move(accounts));
  if (memory.rss_samples() > 0) {
    mem.set("rss_bytes", number(static_cast<double>(memory.rss_bytes())));
    mem.set("rss_peak_bytes",
            number(static_cast<double>(memory.rss_peak_bytes())));
  }
  object.set("profile", std::move(spans));
  object.set("memory", std::move(mem));
}

// The reproduction benches, one per source file (DESIGN.md §4 maps each to
// the table or figure it regenerates). Each reads its inputs and reports
// its rows through `run`; a bench that throws is reported as failed.
void table_5_1_datasets(Run& run);
void fig_5_1_degree_distribution(Run& run);
void fig_5_2_5_3_path_diversity(Run& run);
void table_5_2_avoid_success(Run& run);
void table_5_3_negotiation_state(Run& run);
void fig_5_4_5_5_incremental(Run& run);
void fig_5_6_5_7_traffic_control(Run& run);
void convergence_lab(Run& run);
void ablation_te_mechanisms(Run& run);
void ablation_negotiation_scope(Run& run);
void inference_accuracy(Run& run);
void overhead_messages(Run& run);
void churn_convergence(Run& run);
void verify_fixpoint(Run& run);
void internet_scale(Run& run);

// The suite runner (bench_suite.cpp). run_suite.cpp is its command line;
// tests/bench_suite_test.cpp drives it in-process.

/// One row of the bench table: the bench's name (its key in the merged
/// document and the positional argument that selects it), its function,
/// the shared input it reads, and whether --full runs it.
struct BenchSpec {
  const char* name;
  void (*run)(Run&);
  Input input;
  bool full_tier;  ///< affordable at internet scale (--full runs it)
};

/// Every reproduction bench, in run order.
const std::vector<BenchSpec>& bench_table();

/// The benches to run, in table order: the named ones, else the tier. An
/// unknown name, or --save without bench_internet_scale, is a usage error.
std::vector<const BenchSpec*> select_benches(const SuiteArgs& args,
                                             const char* argv0);

/// Builds every input a selected bench reads, once per profile.
SharedInputs build_inputs(const SuiteArgs& args,
                          const std::vector<const BenchSpec*>& benches);

/// What a suite run produced: the merged document, in the format
/// BENCH_PR3.json is checked in as, and how many benches ran and threw.
struct SuiteResult {
  JsonValue document;
  std::size_t ran = 0;
  std::size_t failed = 0;
};

/// Builds the shared inputs (profiled into the document's "setup" section),
/// then runs each bench in order with a fresh profiler and memory registry.
/// A bench that throws is reported on stderr and left out of the document.
/// Throws when the shared inputs cannot be built.
SuiteResult run_suite(const SuiteArgs& args,
                      const std::vector<const BenchSpec*>& benches);

}  // namespace miro::bench
