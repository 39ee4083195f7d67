// Chaos-sweep harness: drive the MIRO negotiation protocol over a lossy
// control plane (seeded drop / duplication / reorder-jitter, see
// netsim/fault_injection.hpp) and print how the reliability layer holds up —
// establishment rate, retransmissions, suppressed duplicates, failovers.
//
//   ./chaos_sweep [negotiations] [seed] [--metrics-json <path>]
//                 [--chrome-trace <path>] [--memory]
//
// With --metrics-json the final (worst drop rate) run's metrics registry —
// agent counters, bus delivery accounting — is written as a JSON snapshot,
// suitable for a CI artifact. With --chrome-trace the final run is executed
// with both observability planes on — the sim-time event log and the
// wall-clock span profiler — and merged into one Chrome trace-event file
// (load it in chrome://tracing or https://ui.perfetto.dev). With --memory
// the final run's memory accounts (graph, route store, RSS) are printed,
// walked while the run's objects are still alive. Exit status 2
// means a usage error (an unknown flag; a negotiation count that is not a
// positive integer; a seed that is not a non-negative one) or an output
// file that could not be written. Every run is deterministic for a given
// seed.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "core/protocol.hpp"
#include "core/route_store.hpp"
#include "netsim/fault_injection.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/memstats.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "topology/figure31.hpp"

namespace {

struct SweepRow {
  double drop;
  std::size_t initiated = 0;
  std::size_t established = 0;
  std::size_t abandoned = 0;
  std::size_t retransmissions = 0;
  std::size_t duplicates_suppressed = 0;
  std::size_t failed_over = 0;
  miro::sim::FaultPlane::Counters plane;
};

SweepRow run_one(double drop, std::size_t negotiations, std::uint64_t seed,
                 miro::obs::MetricsRegistry* metrics = nullptr,
                 miro::obs::EventLog* log = nullptr,
                 miro::obs::MemoryRegistry* memstats = nullptr) {
  using namespace miro;
  topo::Figure31 fig;
  core::RouteStore store(fig.graph);
  sim::Scheduler scheduler;
  core::Bus bus(scheduler);
  sim::FaultPlane plane(seed);
  plane.set_default_profile({drop, /*duplicate=*/0.10, /*jitter_max=*/25});
  bus.set_fault_plane(&plane);

  core::SoftStateConfig ss;
  ss.rng_seed = seed;
  core::MiroAgent requester(fig.a, store, bus, {}, ss);
  core::MiroAgent responder(fig.b, store, bus, {}, ss);
  scheduler.set_event_log(log);
  bus.set_event_log(log);
  requester.set_event_log(log);
  responder.set_event_log(log);

  SweepRow row;
  row.drop = drop;
  row.initiated = negotiations;
  for (std::size_t i = 0; i < negotiations; ++i) {
    scheduler.at(i * 250, [&]() {
      requester.request(fig.b, fig.a, fig.f, fig.e, std::nullopt,
                        [&row](const core::NegotiationOutcome& o) {
                          if (o.established) ++row.established;
                        });
    });
  }
  const sim::Time end = static_cast<sim::Time>(negotiations) * 250 + 3000;
  scheduler.run_until(end);
  std::vector<net::TunnelId> held;
  for (const auto& [id, up] : requester.upstream_tunnels())
    held.push_back(id);
  for (net::TunnelId id : held) requester.teardown(id);
  scheduler.run_until(end + 2500);

  row.abandoned = requester.stats().negotiations_abandoned;
  row.retransmissions = requester.stats().retransmissions;
  row.duplicates_suppressed = requester.stats().duplicates_suppressed +
                              responder.stats().duplicates_suppressed;
  row.failed_over = requester.stats().tunnels_failed_over;
  row.plane = plane.totals();
  if (memstats != nullptr) {
    memstats->account("topology/graph").set_current(fig.graph.memory_bytes());
    memstats->account("core/route_store").set_current(store.memory_bytes());
    memstats->sample_rss();
  }
  if (metrics != nullptr) {
    requester.export_metrics(*metrics, "requester");
    responder.export_metrics(*metrics, "responder");
    bus.export_metrics(*metrics, "bus");
    plane.export_metrics(*metrics, "faults");
    metrics->gauge("sweep.drop_rate").set(drop);
    metrics->gauge("sweep.negotiations")
        .set(static_cast<double>(negotiations));
  }
  return row;
}

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "chaos_sweep: %s\n", why.c_str());
  std::exit(2);
}

/// A positional count: malformed, signed or below `min` is a usage error,
/// never a silent 0 or a wrapped-around huge count.
std::uint64_t count_arg(const char* name, const std::string& text,
                        std::uint64_t min) {
  const std::optional<std::uint64_t> parsed = miro::parse_u64(text);
  if (!parsed || *parsed < min) {
    usage_error(std::string(name) + " expects a " +
                (min > 0 ? "positive" : "non-negative") + " integer, got '" +
                text + "'");
  }
  return *parsed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path;
  std::string chrome_trace_path;
  bool memory_report = false;
  std::size_t negotiations = 50;
  std::uint64_t seed = 42;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--metrics-json") metrics_path = value();
    else if (arg == "--chrome-trace") chrome_trace_path = value();
    else if (arg == "--memory") memory_report = true;
    else if (arg.starts_with("--")) usage_error("unknown flag " + arg);
    else if (++positional == 1)
      negotiations = count_arg("negotiations", arg, 1);
    else if (positional == 2) seed = count_arg("seed", arg, 0);
    else usage_error("unexpected argument " + arg);
  }

  std::printf("Chaos sweep: %zu negotiations per drop rate, 10%% duplication,"
              " jitter <= 25 ticks, seed %llu\n\n",
              negotiations, static_cast<unsigned long long>(seed));
  std::printf("%6s %6s %6s %6s %7s %6s %6s %8s %8s %6s\n", "drop%", "init",
              "estab", "aband", "retx", "dups", "fover", "msgsent",
              "msgdrop", "rate%");
  miro::obs::MetricsRegistry metrics;
  miro::obs::EventLog log;
  miro::obs::ProfileRegistry profiler;
  miro::obs::MemoryRegistry memstats;
  const std::vector<double> drops{0.0, 0.05, 0.10, 0.15, 0.20, 0.30};
  for (double drop : drops) {
    // Only the final (worst) run is observed: its registry feeds the metrics
    // snapshot and its trace/profiler planes feed the Chrome trace.
    const bool last = drop == drops.back();
    const bool trace_this = last && !chrome_trace_path.empty();
    if (trace_this) miro::obs::set_profile(&profiler);
    const SweepRow row = run_one(drop, negotiations, seed,
                                 last && !metrics_path.empty() ? &metrics
                                                               : nullptr,
                                 trace_this ? &log : nullptr,
                                 last && memory_report ? &memstats : nullptr);
    if (trace_this) miro::obs::set_profile(nullptr);
    std::printf(
        "%6.0f %6zu %6zu %6zu %7zu %6zu %6zu %8llu %8llu %6.1f\n",
        drop * 100, row.initiated, row.established, row.abandoned,
        row.retransmissions, row.duplicates_suppressed, row.failed_over,
        static_cast<unsigned long long>(row.plane.sent),
        static_cast<unsigned long long>(row.plane.dropped),
        100.0 * static_cast<double>(row.established) /
            static_cast<double>(row.initiated));
  }
  std::printf("\nEvery negotiation terminated; soft state drained to zero"
              " after the final quiescent period.\n");
  if (memory_report) {
    std::printf("\nMemory accounts (drop=%.0f%% run):\n",
                drops.back() * 100);
    memstats.write_text(std::cout);
    if (!metrics_path.empty()) memstats.export_metrics(metrics);
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    metrics.write_json(out);
    out << "\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "chaos_sweep: cannot write %s\n",
                   metrics_path.c_str());
      return 2;
    }
    std::printf("Metrics snapshot (drop=%.0f%%) written to %s\n",
                drops.back() * 100, metrics_path.c_str());
  }
  if (!chrome_trace_path.empty()) {
    if (!miro::obs::write_chrome_trace_file(chrome_trace_path, &profiler,
                                            log.events())) {
      return 2;  // the exporter already said why on stderr
    }
    std::printf("Chrome trace (drop=%.0f%%: %zu sim events, %zu wall spans)"
                " written to %s -- open in chrome://tracing or Perfetto\n",
                drops.back() * 100, log.size(), profiler.spans().size(),
                chrome_trace_path.c_str());
  }
  return 0;
}
