// One benchmark run: one workload, one seed, one process, one
// thread. It sets the workload up several times (set-up is timed as one
// span each; setup_s is their median), then runs a fixed op list drawn from
// the seed, checking each op's outputs outside the timed op, and prints one
// JSON object on the last line of stdout.
//
//   miro_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans PATH] [--inject-export-bug]
//
// The op count is S times the workload's nominal rate, so the op list, and
// with it every count and the memory high-water mark, depends only on the
// workload, the seed and S. With --trace 1 every call into a layer is
// recorded as a span, the span log is checked against the measured op
// latencies, per-layer metrics are printed, and --spans writes the spans out
// at exit.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"

namespace perfbench {

using miro::JsonValue;
using miro::obs::ProfileRegistry;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t index) {
  InputRng rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL) ^
               (index * 0xd1b54a32d192ed03ULL));
  return rng.next();
}

// Room for every span of the longest run (live_planes records about 5,400
// per op); the registry drops spans beyond it from its log.
Tracer::Tracer(bool enabled)
    : registry_(enabled ? std::make_unique<ProfileRegistry>(1 << 23)
                        : nullptr) {}

namespace {

ProfileRegistry::SpanStats stats_of(
    const std::map<std::string, ProfileRegistry::SpanStats>& stats,
    const std::string& key) {
  const auto it = stats.find(key);
  return it == stats.end() ? ProfileRegistry::SpanStats{} : it->second;
}

}  // namespace

double SpanTotals::ms(const std::string& name) const {
  return static_cast<double>(stats_of(ops, name).total_ns) / 1e6;
}

std::uint64_t SpanTotals::calls(const std::string& name) const {
  return stats_of(ops, name).count;
}

double SpanTotals::setup_mean_ms(const std::string& name) const {
  const ProfileRegistry::SpanStats stats = stats_of(setup, name);
  return ratio(static_cast<double>(stats.total_ns) / 1e6,
               static_cast<double>(stats.count));
}

namespace {

// Set-ups per run; setup_s is their median. Over ten seeds, the median of
// five set-ups spread half as much as the first set-up alone, and less than
// the fastest of the five (perfbench/README.md, "Steadiness").
constexpr int kSetups = 9;
constexpr const char* kBench = "bench";
constexpr const char* kSetupSpan = "bench.setup";
constexpr const char* kOpSpan = "bench.op";
// How far an op's span may differ from its measured latency: the span opens
// just after the first clock read and closes just after the second.
constexpr std::int64_t kSpanSlackNs = 100'000;
const char* const kModules[] = {"topology", "bgp",   "eval",  "core",
                                "analysis", "netsim", "churn", "dataplane"};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool inject_export_bug = false;
  std::string spans_path;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: miro_perfbench --workload "
               "avoid_internet|verify_internet|live_planes --seed N "
               "--seconds S --trace 0|1 [--spans PATH] "
               "[--inject-export-bug]\n",
               message);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-export-bug") {
      args.inject_export_bug = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      args.trace = value[0] == '1';
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> make(const Args& args) {
  if (args.workload == "avoid_internet") return make_avoid_internet();
  if (args.workload == "verify_internet")
    return make_verify_internet(args.inject_export_bug);
  if (args.workload == "live_planes") return make_live_planes();
  usage(("unknown workload " + args.workload).c_str());
}

/// `count` distinct destinations, one drawn uniformly from each of `count`
/// equal blocks of node ids, in shuffled order. The generator numbers ASes
/// from the tier-1 core outwards to the stubs, and an op's cost depends on
/// where its destination sits; stratifying gives every seed the same mix of
/// core and edge destinations, so runs differ in the draw, not in the mix.
std::vector<std::uint32_t> draw_destinations(std::uint32_t nodes,
                                             std::uint32_t count,
                                             std::uint64_t seed) {
  InputRng rng(seed);
  std::vector<std::uint32_t> drawn;
  for (std::uint32_t k = 0; k < count; ++k) {
    const auto begin = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(nodes) * k / count);
    const auto end = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(nodes) * (k + 1) / count);
    drawn.push_back(begin + rng.below(end - begin));
  }
  for (std::uint32_t i = count; i > 1; --i)
    std::swap(drawn[i - 1], drawn[rng.below(i)]);
  return drawn;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

/// Each span's parent (-1 at the top level) and op, derived from the
/// registry's log: spans are logged in completion order with their depth,
/// so walking the log backwards meets every parent before its children,
/// and a span's parent is the latest span met one level up.
struct SpanTree {
  std::vector<std::int32_t> parent;
  std::vector<std::int32_t> op;
};

/// Checks that the timed ops' span log closes the accounting, and fills
/// `tree`. Every top-level span must be an op span, one per op in order,
/// and lie within kSpanSlackNs of the op's measured latency; every other
/// span must lie inside its parent, and no two siblings may overlap. Then
/// the self times of an op's spans (the layers' and the benchmark's own)
/// add up to the op's wall time. Returns what is wrong, or an empty string.
std::string check_accounting(const ProfileRegistry& registry,
                             const std::vector<std::int64_t>& latency_ns,
                             SpanTree& tree) {
  const std::vector<ProfileRegistry::SpanRecord>& spans = registry.spans();
  if (registry.spans_dropped() != 0) return "the span log overflowed";
  if (registry.open_spans() != 0) return "a span is still open";
  const auto n = static_cast<std::int32_t>(spans.size());
  tree.parent.assign(spans.size(), -1);
  tree.op.assign(spans.size(), -1);
  std::vector<std::int32_t> latest_at_depth;
  // Begin of the next sibling already met (the log runs backwards here).
  std::vector<std::uint64_t> next_begin(
      spans.size() + 1, std::numeric_limits<std::uint64_t>::max());
  auto op = static_cast<std::int32_t>(latency_ns.size());
  for (std::int32_t i = n - 1; i >= 0; --i) {
    const ProfileRegistry::SpanRecord& s = spans[i];
    const std::string name = s.name;
    std::int32_t parent = -1;
    if (s.depth == 0) {
      if (name != kOpSpan) return "span " + name + " is outside every op";
      if (--op < 0) return "more op spans than ops";
      tree.op[i] = op;
      const auto gap = latency_ns[op] - static_cast<std::int64_t>(
                                            s.end_ns - s.begin_ns);
      if (std::abs(gap) > kSpanSlackNs)
        return "op " + std::to_string(op) + " took " +
               std::to_string(latency_ns[op]) + " ns but its span " +
               std::to_string(s.end_ns - s.begin_ns) + " ns";
    } else {
      if (s.depth > latest_at_depth.size())
        return "span " + name + " has no parent";
      parent = latest_at_depth[s.depth - 1];
      const ProfileRegistry::SpanRecord& p = spans[parent];
      if (s.begin_ns < p.begin_ns || s.end_ns > p.end_ns)
        return "span " + name + " is not inside its parent " + p.name;
      tree.parent[i] = parent;
      tree.op[i] = tree.op[parent];
    }
    std::uint64_t& sibling_begin = next_begin[parent + 1];
    if (s.end_ns > sibling_begin)
      return "span " + name + " overlaps the sibling after it";
    sibling_begin = s.begin_ns;
    latest_at_depth.resize(s.depth + 1);
    latest_at_depth[s.depth] = i;
  }
  if (op != 0) return "fewer op spans than ops";
  return {};
}

void write_spans(const std::string& path, const ProfileRegistry& registry,
                 const SpanTree& tree) {
  std::ofstream out(path);
  out << "index\tparent\top\tname\tstart_ns\tend_ns\n";
  const std::vector<ProfileRegistry::SpanRecord>& spans = registry.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const ProfileRegistry::SpanRecord& s = spans[i];
    out << i << '\t' << tree.parent[i] << '\t' << tree.op[i] << '\t' << s.name
        << '\t' << s.begin_ns << '\t' << s.end_ns << '\n';
  }
  if (!out) std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
}

JsonValue to_json(const Metrics& metrics) {
  JsonValue object = JsonValue::make_object();
  for (const Metrics::Value& v : metrics.values()) {
    JsonValue entry = JsonValue::make_object();
    entry.set("value", JsonValue::make_number(v.value));
    entry.set("unit", JsonValue::make_string(v.unit));
    object.set(v.name, std::move(entry));
  }
  return object;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  // Every timed phase runs on one thread, whatever MIRO_THREADS says.
  miro::par::set_thread_count(1);
  std::unique_ptr<Workload> workload = make(args);
  Tracer tracer(args.trace);
  ProfileRegistry* registry = tracer.registry();

  const std::uint32_t ops = static_cast<std::uint32_t>(std::max(
      20.0, std::round(args.seconds * workload->nominal_ops_per_s())));
  // Every set-up ends with one warm-up op. Its destination and seed do not
  // depend on --seed, so set-up does the same work in every run; the ops get
  // fresh destinations drawn without replacement from the other nodes.
  const std::uint32_t nodes = workload->node_count();
  if (nodes <= ops) {
    std::fprintf(stderr, "error: graph too small for %u ops\n", ops);
    return 2;
  }
  const std::uint32_t warmup = nodes / 2;
  std::vector<std::uint32_t> destinations =
      draw_destinations(nodes - 1, ops, derive_seed(args.seed, 1, 0));
  for (std::uint32_t& d : destinations) d += d >= warmup ? 1 : 0;

  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    {
      miro::obs::ScopedSpan span(registry, kSetupSpan, kBench);
      workload->setup(tracer);
      workload->run_op(warmup, derive_seed(0, 2, 0), tracer);
    }
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  workload->reset_counts();
  SpanTotals totals;
  if (registry != nullptr) {
    totals.setup = registry->by_name();
    registry->reset();
  }

  std::vector<std::int64_t> latency_ns;
  std::vector<std::string> failures;
  std::uint64_t units = 0;
  std::uint64_t failed = 0;
  for (std::uint32_t i = 0; i < ops; ++i) {
    std::string failure;
    const std::int64_t start = now_ns();
    std::int64_t end = 0;
    try {
      miro::obs::ScopedSpan span(registry, kOpSpan, kBench);
      units += workload->run_op(destinations[i],
                                derive_seed(args.seed, 2, i), tracer);
      end = now_ns();
    } catch (const std::exception& e) {
      end = now_ns();
      failure = std::string("threw: ") + e.what();
    }
    latency_ns.push_back(end - start);
    if (failure.empty()) {
      try {
        failure = workload->check_op();
      } catch (const std::exception& e) {
        failure = std::string("check threw: ") + e.what();
      }
    }
    if (!failure.empty()) {
      ++failed;
      if (failures.size() < 5)
        failures.push_back("op " + std::to_string(i) + " (destination " +
                           std::to_string(destinations[i]) +
                           "): " + failure);
    }
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  std::int64_t timed_ns = 0;
  std::vector<double> latency_ms;
  for (std::int64_t ns : latency_ns) {
    timed_ns += ns;
    latency_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  const double timed_s = static_cast<double>(timed_ns) / 1e9;
  std::vector<double> sorted = latency_ms;
  std::sort(sorted.begin(), sorted.end());
  // p90 (nearest rank), or, in runs of fewer than 100 ops, the highest rank
  // with ten ops beyond it.
  const std::size_t p90_index = (sorted.size() * 9 + 9) / 10 - 1;
  const std::size_t tail_index =
      std::min(p90_index, sorted.size() > 10 ? sorted.size() - 11 : 0);

  Metrics e2e;
  e2e.set("work_per_s", static_cast<double>(units) / timed_s, "1/s");
  e2e.set("op_p50_ms", median(latency_ms), "ms");
  e2e.set("op_tail_ms", sorted[tail_index], "ms");
  e2e.set("setup_s", median(setup_s), "s");
  e2e.set("peak_rss_mb", static_cast<double>(usage_now.ru_maxrss) / 1024.0,
          "MB");
  e2e.set("ok_frac", 1.0 - static_cast<double>(failed) / ops, "fraction");

  Metrics layer;
  std::string accounting;
  if (registry != nullptr) {
    SpanTree tree;
    accounting = check_accounting(*registry, latency_ns, tree);
    totals.ops = registry->by_name();
    workload->layer_metrics(totals, ops, layer);
    // Category is module, so by_category() gives each layer's self time.
    for (const char* module : kModules) {
      layer.set(std::string(module) + ".self_ms_per_op",
                static_cast<double>(
                    stats_of(registry->by_category(), module).self_ns) /
                    1e6 / ops,
                "ms");
    }
    // The op spans' self time is the benchmark's own time.
    const ProfileRegistry::SpanStats op_spans =
        stats_of(registry->by_category(), kBench);
    layer.set("bench.driver_self_frac",
              ratio(static_cast<double>(op_spans.self_ns),
                    static_cast<double>(op_spans.total_ns)),
              "fraction");
    if (!args.spans_path.empty()) write_spans(args.spans_path, *registry, tree);
  }

  for (const std::string& failure : failures)
    std::fprintf(stderr, "FAILED %s\n", failure.c_str());

  JsonValue out = JsonValue::make_object();
  out.set("workload", JsonValue::make_string(args.workload));
  out.set("seed", JsonValue::make_number(static_cast<double>(args.seed)));
  out.set("trace", JsonValue::make_bool(args.trace));
  out.set("ops", JsonValue::make_number(ops));
  out.set("failed", JsonValue::make_number(static_cast<double>(failed)));
  out.set("work_unit", JsonValue::make_string(workload->work_unit()));
  out.set("timed_s", JsonValue::make_number(timed_s));
  JsonValue setups = JsonValue::make_array();
  for (double s : setup_s) setups.push_back(JsonValue::make_number(s));
  out.set("setups_s", std::move(setups));
  out.set("accounting", JsonValue::make_string(accounting));
  out.set("e2e", to_json(e2e));
  out.set("layer", to_json(layer));
  JsonValue counts = JsonValue::make_object();
  for (const auto& [name, value] : workload->counts())
    counts.set(name, JsonValue::make_number(static_cast<double>(value)));
  out.set("counts", std::move(counts));
  JsonValue failure_list = JsonValue::make_array();
  for (const std::string& failure : failures)
    failure_list.push_back(JsonValue::make_string(failure));
  out.set("failures", std::move(failure_list));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
