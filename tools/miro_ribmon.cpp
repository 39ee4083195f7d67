// miro_ribmon — the churn CLI: replays a churn trace over the sessioned BGP
// plane with the invariant checker and an event log attached.
//
//   miro_ribmon [--topo figure31|<profile>] [--scale X] [--seed N]
//               [--episodes N] [--duration T] [--defend] [--mrai N]
//               [--save PATH] [--load PATH] [--events PATH]
//               [--summary PATH] [--chrome-trace PATH] [--json] [--memory]
//
// The trace is generated from the seed or --load'ed from a saved JSON script
// (--save writes it first, so a failing script replays forever). --defend
// switches on MRAI + flap damping. The tool then:
//   - reports the replay's convergence, message, defense and checkpoint
//     counters, and one witness line per invariant violation;
//   - writes the raw record stream as JSONL (--events), one provenance
//     record per line with its causal parent id;
//   - reconstructs the per-root-cause propagation trees and prints one row
//     per tree (convergence, depth, fan-out, amplification);
//   - distills per-prefix convergence observables (best-route changes,
//     path-exploration counts, RIB-churn rate) with Histogram quantiles;
//   - verifies closed accounting: the record stream's per-kind totals must
//     equal the replay's own BGP counters exactly, and the per-tree sums
//     must cover every record (no orphans).
//   - optionally renders the stream as per-AS Perfetto instant tracks
//     (--chrome-trace).
//
// Exit status: 0 when accounting closes and no invariant was violated, 1 on
// an accounting mismatch or replay violation, 2 on usage (a malformed
// numeric flag included) or I/O failure.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "churn/replayer.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/memstats.hpp"
#include "obs/metrics.hpp"
#include "obs/ribmon.hpp"
#include "topology/figure31.hpp"
#include "topology/generator.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--topo figure31|<profile>] [--scale X] [--seed N] "
               "[--episodes N] [--duration T] [--defend] [--mrai N] "
               "[--save PATH] [--load PATH] [--events PATH] "
               "[--summary PATH] [--chrome-trace PATH] [--json] [--memory]\n",
               argv0);
  std::exit(2);
}

[[noreturn]] void bad_value(const std::string& flag, const char* text,
                            const char* expected) {
  std::fprintf(stderr, "miro_ribmon: %s expects %s, got '%s'\n",
               flag.c_str(), expected, text);
  std::exit(2);
}

/// The replay's own accounting: convergence, message and defense counters,
/// and checkpoint counts.
void print_replay(const miro::churn::ReplayResult& result) {
  std::printf("  initial convergence: %llu ticks\n",
              static_cast<unsigned long long>(result.initial_convergence));
  std::printf("  churn bursts: %zu\n", result.convergence.size());
  miro::obs::Histogram burst_conv;
  std::size_t burst_msgs = 0;
  for (const miro::churn::ConvergenceSample& sample : result.convergence) {
    burst_conv.observe(static_cast<double>(sample.duration()));
    burst_msgs += sample.messages;
  }
  std::printf("  burst convergence: p50 %.1f, p90 %.1f, p99 %.1f, "
              "worst %.0f ticks\n",
              burst_conv.p50(), burst_conv.p90(), burst_conv.p99(),
              burst_conv.max());
  std::printf("  messages during bursts: %zu\n", burst_msgs);
  std::printf("  updates %zu, withdrawals %zu, coalesced %zu, "
              "suppressed %zu, damped %zu\n",
              result.bgp.updates_sent, result.bgp.withdrawals_sent,
              result.bgp.coalesced, result.bgp.updates_suppressed,
              result.bgp.routes_damped);
  std::printf("  checkpoints: %zu (%zu transit-quiet, %zu solver "
              "comparisons)\n",
              result.checker.checkpoints, result.checker.quiet_checkpoints,
              result.checker.solver_comparisons);
}

/// One witness line per invariant violation: the property, the sim time and
/// the trace event after which it was observed.
void print_violations(const miro::churn::ReplayResult& result) {
  for (const miro::churn::ChurnViolation& violation : result.violations) {
    if (violation.event_index == miro::churn::InvariantChecker::kNoEvent) {
      std::printf("  [%s] t=%llu (before any event): %s\n",
                  violation.property.c_str(),
                  static_cast<unsigned long long>(violation.time),
                  violation.detail.c_str());
    } else {
      std::printf("  [%s] t=%llu after event #%zu: %s\n",
                  violation.property.c_str(),
                  static_cast<unsigned long long>(violation.time),
                  violation.event_index, violation.detail.c_str());
    }
  }
  if (result.checker.violations_dropped != 0) {
    std::printf("  ... and %zu more dropped\n",
                result.checker.violations_dropped);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace miro;
  std::string topo_name = "figure31";
  double scale = 0.15;
  std::string save_path, load_path, events_path, summary_path, chrome_path;
  bool json = false;
  bool memory_report = false;
  churn::ChurnTraceConfig trace_config;
  trace_config.duration = 8000;
  trace_config.episodes = 24;
  churn::ReplayConfig replay_config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&]() -> std::uint64_t {
      const char* text = value();
      const std::optional<std::uint64_t> parsed = parse_u64(text);
      if (!parsed) bad_value(flag, text, "a non-negative integer");
      return *parsed;
    };
    if (flag == "--topo") topo_name = value();
    else if (flag == "--scale") {
      const char* text = value();
      const std::optional<double> parsed = parse_finite(text);
      if (!parsed || *parsed <= 0) bad_value(flag, text, "a positive number");
      scale = *parsed;
    } else if (flag == "--seed") trace_config.seed = count();
    else if (flag == "--episodes") trace_config.episodes = count();
    else if (flag == "--duration") trace_config.duration = count();
    else if (flag == "--defend") {
      replay_config.defense.mrai = 60;
      replay_config.defense.damping_enabled = true;
    } else if (flag == "--mrai") replay_config.defense.mrai = count();
    else if (flag == "--save") save_path = value();
    else if (flag == "--load") load_path = value();
    else if (flag == "--events") events_path = value();
    else if (flag == "--summary") summary_path = value();
    else if (flag == "--chrome-trace") chrome_path = value();
    else if (flag == "--json") json = true;
    else if (flag == "--memory") memory_report = true;
    else usage(argv[0]);
  }

  try {
    const topo::Figure31 fig;
    topo::AsGraph generated;
    const topo::AsGraph* graph = &fig.graph;
    topo::NodeId destination = fig.f;
    if (topo_name != "figure31") {
      generated = topo::generate(topo::profile(topo_name, scale));
      graph = &generated;
      destination = 0;
    }

    const churn::ChurnTrace trace =
        load_path.empty()
            ? churn::generate_churn_trace(*graph, destination, trace_config)
            : churn::ChurnTrace::load(load_path);
    if (!save_path.empty()) trace.save(save_path);
    // The text report's trace lines come first; --json keeps stdout one
    // JSON document.
    if (!json) {
      if (load_path.empty()) {
        std::printf("generated %zu events (seed %llu, duration %llu)\n",
                    trace.events.size(),
                    static_cast<unsigned long long>(trace.seed),
                    static_cast<unsigned long long>(trace_config.duration));
      } else {
        std::printf("loaded %zu events from %s (seed %llu)\n",
                    trace.events.size(), load_path.c_str(),
                    static_cast<unsigned long long>(trace.seed));
      }
      if (!save_path.empty())
        std::printf("saved trace to %s\n", save_path.c_str());
    }

    // With --memory the replay runs with a registry attached: the graph
    // generator and replay checkpoints keep the per-subsystem accounts
    // current, and RSS is sampled once at the end of the run.
    obs::MemoryRegistry memstats;
    if (memory_report) {
      obs::set_memory(&memstats);
      memstats.account("topology/graph").set_current(graph->memory_bytes());
    }
    obs::EventLog log;
    replay_config.log = &log;
    const churn::ReplayResult result =
        churn::replay_churn(*graph, trace, replay_config);
    if (memory_report) {
      memstats.sample_rss();
      obs::set_memory(nullptr);
    }

    if (!events_path.empty() && !obs::write_jsonl_file(events_path, log)) {
      std::fprintf(stderr, "miro_ribmon: cannot write %s\n",
                   events_path.c_str());
      return 2;
    }
    if (!chrome_path.empty() &&
        !obs::write_chrome_trace_file(chrome_path, nullptr, log.events())) {
      return 2;
    }

    const obs::ProvenanceSummary provenance =
        build_propagation_trees(log.events());
    const obs::ConvergenceReport convergence =
        summarize_convergence(log.events());

    // Closed accounting: every stream total must match the replay's own
    // counters, and every record must land in a tree (no orphans).
    const auto accounting =
        churn::closed_accounting(result, log, provenance);
    bool accounting_ok = true;
    for (const churn::AccountingRow& row : accounting) {
      accounting_ok = accounting_ok && row.ok();
    }

    obs::MetricsRegistry registry;
    obs::export_ribmon_metrics(log, registry);
    if (memory_report) memstats.export_metrics(registry);

    if (!summary_path.empty() || json) {
      JsonValue doc = JsonValue::make_object();
      JsonValue trace_info = JsonValue::make_object();
      trace_info.set("topo", JsonValue::make_string(topo_name));
      trace_info.set("events",
                     JsonValue::make_number(
                         static_cast<double>(trace.events.size())));
      trace_info.set("seed",
                     JsonValue::make_number(static_cast<double>(trace.seed)));
      doc.set("trace", std::move(trace_info));
      JsonValue acct = JsonValue::make_object();
      for (const churn::AccountingRow& row : accounting) {
        JsonValue entry = JsonValue::make_object();
        entry.set("records",
                  JsonValue::make_number(static_cast<double>(row.records)));
        entry.set("counter",
                  JsonValue::make_number(static_cast<double>(row.counter)));
        entry.set("ok", JsonValue::make_bool(row.ok()));
        acct.set(row.what, std::move(entry));
      }
      doc.set("accounting", std::move(acct));
      doc.set("accounting_ok", JsonValue::make_bool(accounting_ok));
      doc.set("violations",
              JsonValue::make_number(
                  static_cast<double>(result.violations.size())));
      std::ostringstream metrics_json;
      registry.write_json(metrics_json);
      doc.set("metrics", JsonValue::parse(metrics_json.str()));
      const std::string rendered = doc.dump();
      if (!summary_path.empty()) {
        std::ofstream out(summary_path);
        out << rendered << "\n";
        out.flush();
        if (!out) {
          std::fprintf(stderr, "miro_ribmon: write failed on %s\n",
                       summary_path.c_str());
          return 2;
        }
      }
      if (json) std::cout << rendered << "\n";
    }

    if (!json) {
      std::printf("\nreplay over %s (%zu ASes, %zu links), %zu trace events, "
                  "defenses %s\n",
                  topo_name.c_str(), graph->node_count(), graph->edge_count(),
                  trace.events.size(),
                  replay_config.defense.mrai != 0 ||
                          replay_config.defense.damping_enabled
                      ? "ON"
                      : "off");
      print_replay(result);
      std::printf("%zu provenance records in %zu trees\n\n", log.size(),
                  provenance.trees.size());

      TextTable table({"root", "cause", "actor", "start", "conv", "nodes",
                       "depth", "fanout", "updates", "deliv", "lost", "supp",
                       "coal", "best"});
      for (const obs::PropagationTree& tree : provenance.trees) {
        table.add_row({std::to_string(tree.root), tree.root_detail,
                       std::to_string(tree.root_actor),
                       std::to_string(tree.start),
                       std::to_string(tree.convergence()),
                       std::to_string(tree.nodes), std::to_string(tree.depth),
                       std::to_string(tree.max_fanout),
                       std::to_string(tree.updates),
                       std::to_string(tree.delivered),
                       std::to_string(tree.losses),
                       std::to_string(tree.suppressed),
                       std::to_string(tree.coalesced),
                       std::to_string(tree.best_changes)});
      }
      table.print(std::cout);

      const obs::Histogram& conv =
          registry.histogram("ribmon.convergence_ticks");
      const obs::Histogram& amp = registry.histogram("ribmon.amplification");
      std::printf("\nconvergence ticks: p50 %s  p90 %s  p99 %s  max %s\n",
                  TextTable::num(conv.p50()).c_str(),
                  TextTable::num(conv.p90()).c_str(),
                  TextTable::num(conv.p99()).c_str(),
                  TextTable::num(conv.max()).c_str());
      std::printf("amplification:     p50 %s  p90 %s  p99 %s  max %s\n",
                  TextTable::num(amp.p50()).c_str(),
                  TextTable::num(amp.p90()).c_str(),
                  TextTable::num(amp.p99()).c_str(),
                  TextTable::num(amp.max()).c_str());
      std::printf("best-route changes: %zu across %zu ASes, churn rate "
                  "%s/1000 ticks\n",
                  convergence.total_best_changes, convergence.actors.size(),
                  TextTable::num(convergence.churn_rate()).c_str());

      if (memory_report) {
        std::printf("\nmemory accounts:\n");
        memstats.write_text(std::cout);
      }

      std::printf("\nclosed accounting:\n");
      for (const churn::AccountingRow& row : accounting) {
        std::printf("  [%s] %s: stream %llu vs counter %llu\n",
                    row.ok() ? "ok" : "MISMATCH", row.what,
                    static_cast<unsigned long long>(row.records),
                    static_cast<unsigned long long>(row.counter));
      }
      if (!result.violations.empty()) {
        std::printf("\nFAIL: %zu invariant violation(s) during replay\n",
                    result.violations.size());
        print_violations(result);
      }
    }

    return accounting_ok && result.violations.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "miro_ribmon: %s\n", error.what());
    return 2;
  }
}
