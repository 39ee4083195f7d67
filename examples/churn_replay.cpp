// Churn replay lab: generate or load a churn trace (link flaps, session
// resets, prefix flaps, hijack-and-recover), replay it deterministically
// over the sessioned BGP plane, and audit every checkpoint with the online
// safety-invariant checker. Nonzero exit iff any invariant is violated, so
// the binary doubles as a chaos gate for CI.
//
//   ./churn_replay [--topo figure31|<profile>] [--scale X] [--seed N]
//                  [--episodes N] [--duration T] [--defend] [--mrai N]
//                  [--checkpoint T] [--save PATH] [--load PATH]
//
// --load replays a saved trace JSON against the selected topology (the trace
// is re-validated against it first); --save writes the generated trace so a
// failing script can be checked in and replayed forever. --defend switches
// on the MRAI + flap-damping defenses (both off by default, like real
// deployments start). Every run is bit-deterministic for a given seed. A
// malformed numeric flag is a usage error (exit 2).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "churn/replayer.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "topology/generator.hpp"

namespace {

// The dissertation's six-AS running example (Figure 3.1); destination F.
struct Figure31 {
  miro::topo::AsGraph graph;
  miro::topo::NodeId a, b, c, d, e, f;

  Figure31() {
    a = graph.add_as(1);
    b = graph.add_as(2);
    c = graph.add_as(3);
    d = graph.add_as(4);
    e = graph.add_as(5);
    f = graph.add_as(6);
    graph.add_customer_provider(/*provider=*/b, /*customer=*/a);
    graph.add_customer_provider(d, a);
    graph.add_customer_provider(b, e);
    graph.add_customer_provider(d, e);
    graph.add_customer_provider(c, f);
    graph.add_customer_provider(e, f);
    graph.add_peer(b, c);
    graph.add_peer(c, e);
  }
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--topo figure31|<profile>] [--scale X] [--seed N] "
               "[--episodes N] [--duration T] [--defend] [--mrai N] "
               "[--checkpoint T] [--save PATH] [--load PATH]\n",
               argv0);
  std::exit(2);
}

[[noreturn]] void bad_value(const std::string& flag, const char* text,
                            const char* expected) {
  std::fprintf(stderr, "churn_replay: %s expects %s, got '%s'\n",
               flag.c_str(), expected, text);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace miro;
  std::string topo_name = "figure31";
  double scale = 0.15;
  std::string save_path, load_path;
  churn::ChurnTraceConfig trace_config;
  trace_config.duration = 8000;
  trace_config.episodes = 24;
  churn::ReplayConfig replay_config;
  replay_config.checkpoint_interval = 200;
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
      char* end = nullptr;
      scale = std::strtod(text, &end);
      if (end == text || *end != '\0' || !std::isfinite(scale) || scale <= 0)
        bad_value(flag, text, "a positive number");
    } else if (flag == "--seed") trace_config.seed = count();
    else if (flag == "--episodes") trace_config.episodes = count();
    else if (flag == "--duration") trace_config.duration = count();
    else if (flag == "--defend") {
      replay_config.defense.mrai = 60;
      replay_config.defense.damping_enabled = true;
    } else if (flag == "--mrai") replay_config.defense.mrai = count();
    else if (flag == "--checkpoint")
      replay_config.checkpoint_interval = count();
    else if (flag == "--save") save_path = value();
    else if (flag == "--load") load_path = value();
    else usage(argv[0]);
  }

  try {
    Figure31 fig;
    topo::AsGraph generated;
    const topo::AsGraph* graph = &fig.graph;
    topo::NodeId destination = fig.f;
    if (topo_name != "figure31") {
      generated = topo::generate(topo::profile(topo_name, scale));
      graph = &generated;
      destination = 0;
    }

    churn::ChurnTrace trace;
    if (!load_path.empty()) {
      trace = churn::ChurnTrace::load(load_path);
      std::printf("loaded %zu events from %s (seed %llu)\n",
                  trace.events.size(), load_path.c_str(),
                  static_cast<unsigned long long>(trace.seed));
    } else {
      trace = churn::generate_churn_trace(*graph, destination, trace_config);
      std::printf("generated %zu events (seed %llu, duration %llu)\n",
                  trace.events.size(),
                  static_cast<unsigned long long>(trace.seed),
                  static_cast<unsigned long long>(trace_config.duration));
    }
    if (!save_path.empty()) {
      trace.save(save_path);
      std::printf("saved trace to %s\n", save_path.c_str());
    }

    const churn::ReplayResult result =
        churn::replay_churn(*graph, trace, replay_config);

    std::printf("\nreplay over %s (%zu ASes, %zu links), defenses %s\n",
                topo_name.c_str(), graph->node_count(), graph->edge_count(),
                replay_config.defense.mrai != 0 ||
                        replay_config.defense.damping_enabled
                    ? "ON"
                    : "off");
    std::printf("  initial convergence: %llu ticks\n",
                static_cast<unsigned long long>(result.initial_convergence));
    std::printf("  churn bursts: %zu\n", result.convergence.size());
    obs::Histogram burst_conv;
    std::size_t burst_msgs = 0;
    for (const churn::ConvergenceSample& sample : result.convergence) {
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

    if (result.ok()) {
      std::printf("\nOK: all invariants held at every checkpoint\n");
      return 0;
    }
    std::printf("\nFAIL: %zu invariant violation(s)\n",
                result.violations.size());
    for (const churn::ChurnViolation& violation : result.violations) {
      if (violation.event_index == churn::InvariantChecker::kNoEvent) {
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
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
