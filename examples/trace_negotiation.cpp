// Trace one MIRO negotiation over a lossy control plane and reconstruct its
// causal timeline from the event log (see src/obs/ and DESIGN.md §8).
//
//   ./trace_negotiation [drop] [seed] [trace.jsonl] [metrics.json]
//
// Runs a single avoid-E negotiation from AS A to AS B on the dissertation's
// Figure 3.1 topology with per-message drop/duplication/jitter, holds the
// tunnel through a few keep-alive rounds, tears it down, and then:
//   - prints the reconstructed per-negotiation timeline (every traced event,
//     plus the compact arrow-form summary),
//   - writes the full event log to a JSONL file,
//   - writes a metrics-registry JSON snapshot next to it.
// Both files are what the CI workflow uploads as artifacts; exit status 2
// means one of them could not be written, or a usage error (a drop outside
// [0, 1], a seed that is not a non-negative integer, extra arguments).
// Every run is deterministic for a given seed.
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
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "topology/figure31.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "trace_negotiation: %s\n", why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace miro;
  if (argc > 5) usage_error(std::string("unexpected argument ") + argv[5]);
  double drop = 0.10;
  if (argc > 1) {
    const std::optional<double> parsed = parse_finite(argv[1]);
    if (!parsed || *parsed < 0 || *parsed > 1) {
      usage_error(std::string("drop expects a number in [0, 1], got '") +
                  argv[1] + "'");
    }
    drop = *parsed;
  }
  std::uint64_t seed = 7;
  if (argc > 2) {
    const std::optional<std::uint64_t> parsed = parse_u64(argv[2]);
    if (!parsed) {
      usage_error(std::string("seed expects a non-negative integer, got '") +
                  argv[2] + "'");
    }
    seed = *parsed;
  }
  const std::string trace_path =
      argc > 3 ? argv[3] : "trace_negotiation.jsonl";
  const std::string metrics_path =
      argc > 4 ? argv[4] : "trace_negotiation_metrics.json";

  topo::Figure31 fig;
  core::RouteStore store(fig.graph);
  sim::Scheduler scheduler;
  core::Bus bus(scheduler);
  sim::FaultPlane plane(seed);
  plane.set_default_profile({drop, /*duplicate=*/0.10, /*jitter_max=*/25});
  bus.set_fault_plane(&plane);

  // One log observes the bus and both agents.
  obs::EventLog log;
  bus.set_event_log(&log);

  core::SoftStateConfig ss;
  ss.rng_seed = seed;
  core::MiroAgent requester(fig.a, store, bus, {}, ss);
  core::MiroAgent responder(fig.b, store, bus, {}, ss);
  requester.set_event_log(&log);
  responder.set_event_log(&log);

  std::printf("One negotiation, drop=%.0f%%, 10%% duplication, jitter <= 25"
              " ticks, seed %llu\n\n",
              drop * 100, static_cast<unsigned long long>(seed));

  std::uint64_t negotiation_id = 0;
  scheduler.at(0, [&] {
    negotiation_id = requester.request(
        fig.b, fig.a, fig.f, /*avoid=*/fig.e, std::nullopt,
        [](const core::NegotiationOutcome& outcome) {
          std::printf("outcome: %s\n\n",
                      outcome.established ? "established" : "failed");
        });
  });
  // Let the handshake finish and a few keep-alive rounds pass, then tear the
  // tunnel down over the same lossy network and let soft state drain.
  scheduler.run_until(2000);
  std::vector<net::TunnelId> held;
  for (const auto& [id, up] : requester.upstream_tunnels())
    held.push_back(id);
  for (net::TunnelId id : held) requester.teardown(id);
  scheduler.run_until(4500);  // quiescent period: soft state drains

  const obs::NegotiationTimeline timeline =
      obs::reconstruct_negotiation(log, negotiation_id);
  std::printf("negotiation %llu reconstructed (%zu events, tunnel %llu):\n",
              static_cast<unsigned long long>(timeline.negotiation_id),
              timeline.events.size(),
              static_cast<unsigned long long>(timeline.tunnel_id));
  std::printf("%8s  %-24s %5s %5s %7s  %s\n", "t", "event", "actor", "peer",
              "value", "detail");
  for (const obs::Event& event : timeline.events) {
    std::printf("%8llu  %-24s %5u %5u %7lld  %s\n",
                static_cast<unsigned long long>(event.time),
                obs::to_string(event.kind), event.actor, event.peer,
                static_cast<long long>(event.value), event.detail);
  }
  std::printf("\nsummary: %s\n\n", timeline.summary().c_str());

  obs::MetricsRegistry metrics;
  requester.export_metrics(metrics, "requester");
  responder.export_metrics(metrics, "responder");
  bus.export_metrics(metrics, "bus");
  metrics.write_text(std::cout);
  std::ofstream metrics_out(metrics_path);
  metrics.write_json(metrics_out);
  metrics_out << "\n";
  metrics_out.flush();
  const auto cannot_write = [](const std::string& path) {
    std::fprintf(stderr, "trace_negotiation: cannot write %s\n",
                 path.c_str());
    return 2;
  };
  if (!metrics_out) return cannot_write(metrics_path);
  if (!obs::write_jsonl_file(trace_path, log)) return cannot_write(trace_path);

  std::printf("\nwrote %zu trace events to %s and a metrics snapshot to"
              " %s\n",
              log.size(), trace_path.c_str(), metrics_path.c_str());
  return 0;
}
