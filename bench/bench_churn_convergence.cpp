// Convergence under sustained churn, and what the defenses buy.
//
// Two workloads per topology profile:
//   - a seeded mixed churn trace (link flaps, session resets, prefix flaps,
//     hijack-and-recover): per-burst convergence-time distribution and
//     message cost, with the online invariant checker auditing every
//     checkpoint (any violation is reported as a nonzero row);
//   - a persistent single-link flapper: network-wide UPDATE traffic with the
//     MRAI + flap-damping defenses off vs on — the suppression ratio the
//     damping design must pay for itself on.
// All rows are pure simulation results (deterministic for a given seed), so
// the suite snapshot stays byte-comparable across thread counts — except the
// monitoring-overhead pair, which times the same mixed replay with the
// route-event provenance recorder off vs on (wall-clock "ms" rows, gated by
// the regression threshold like every other timing).
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "churn/replayer.hpp"
#include "common/table.hpp"
#include "obs/metrics.hpp"
#include "obs/ribmon.hpp"

namespace miro::bench {
namespace {

std::string fixed2(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2f", value);
  return buffer;
}

}  // namespace

void churn_convergence(Run& run) {
  TextTable table({"profile", "ASes", "bursts", "conv p50", "conv p90",
                   "msgs/burst", "flap msgs off", "flap msgs on",
                   "suppression", "rib records", "violations"});
  for (const std::string& profile_name : run.args().profiles()) {
    const topo::AsGraph& graph = run.half_scale_graph(profile_name);
    const topo::NodeId destination = 0;
    run.add_memory_rows(profile_name, graph);
    const Stopwatch clock;

    // Mixed churn: the seeded generator's workload, defenses off, with the
    // invariant checker auditing the whole replay.
    churn::ChurnTraceConfig trace_config;
    trace_config.seed = run.args().seed;
    trace_config.duration = 12000;
    trace_config.episodes = 16;
    const churn::ChurnTrace mixed =
        churn::generate_churn_trace(graph, destination, trace_config);
    churn::ReplayConfig replay_config;
    replay_config.checkpoint_interval = 1000;
    const churn::ReplayResult base =
        churn::replay_churn(graph, mixed, replay_config);

    obs::Histogram durations;
    obs::Histogram messages;
    for (const churn::ConvergenceSample& sample : base.convergence) {
      durations.observe(static_cast<double>(sample.duration()));
      messages.observe(static_cast<double>(sample.messages));
    }
    const double conv_p50 = durations.p50();
    const double conv_p90 = durations.p90();
    const double msgs_per_burst = messages.mean();
    std::size_t violations = base.violations.size();

    // Monitoring overhead: the identical mixed replay, provenance recorder
    // off vs on. The monitored run must agree with the unmonitored one on
    // every protocol counter (zero-cost-when-disabled means zero behaviour
    // change when enabled), and its record stream must close the books
    // against those counters; either failure counts as a violation.
    const Stopwatch off_clock;
    const churn::ReplayResult unmonitored =
        churn::replay_churn(graph, mixed, replay_config);
    const double monitor_off_ms = off_clock.ms();
    obs::EventLog rib;
    churn::ReplayConfig monitored_config = replay_config;
    monitored_config.log = &rib;
    const Stopwatch on_clock;
    const churn::ReplayResult monitored =
        churn::replay_churn(graph, mixed, monitored_config);
    const double monitor_on_ms = on_clock.ms();
    const obs::ProvenanceSummary provenance =
        obs::build_propagation_trees(rib.events());
    bool monitor_ok =
        monitored.bgp.updates_sent == unmonitored.bgp.updates_sent &&
        monitored.bgp.withdrawals_sent == unmonitored.bgp.withdrawals_sent &&
        monitored.bgp.selections == unmonitored.bgp.selections;
    for (const churn::AccountingRow& row :
         churn::closed_accounting(monitored, rib, provenance))
      monitor_ok = monitor_ok && row.ok();
    if (!monitor_ok) ++violations;

    // Persistent flapper on the destination's first link: off vs on.
    const topo::NodeId flappy = graph.neighbors(destination).front().node;
    const churn::ChurnTrace flap_trace = churn::make_persistent_flap_trace(
        graph, destination, destination, flappy, /*flaps=*/30, /*period=*/120);
    churn::ReplayConfig off_config;
    off_config.checkpoint_interval = 0;  // final audit only: pure message cost
    const churn::ReplayResult off =
        churn::replay_churn(graph, flap_trace, off_config);
    churn::ReplayConfig on_config = off_config;
    on_config.defense.mrai = 60;
    on_config.defense.damping_enabled = true;
    const churn::ReplayResult on =
        churn::replay_churn(graph, flap_trace, on_config);
    violations += off.violations.size() + on.violations.size();

    const std::size_t off_msgs = off.bgp.updates_sent + off.bgp.withdrawals_sent;
    const std::size_t on_msgs = on.bgp.updates_sent + on.bgp.withdrawals_sent;
    const double suppression =
        on_msgs == 0 ? 0 : static_cast<double>(off_msgs) / on_msgs;

    table.add_row({profile_name, std::to_string(graph.node_count()),
                   std::to_string(base.convergence.size()),
                   fixed2(conv_p50), fixed2(conv_p90),
                   fixed2(msgs_per_burst), std::to_string(off_msgs),
                   std::to_string(on_msgs), fixed2(suppression) + "x",
                   std::to_string(rib.size()),
                   std::to_string(violations)});
    run.add(profile_name + ".mixed.bursts",
            static_cast<double>(base.convergence.size()), "bursts");
    run.add(profile_name + ".mixed.convergence_p50", conv_p50, "ticks");
    run.add(profile_name + ".mixed.convergence_p90", conv_p90, "ticks");
    run.add(profile_name + ".mixed.msgs_per_burst", msgs_per_burst,
            "messages");
    run.add(profile_name + ".mixed.rib_bytes",
            static_cast<double>(base.rib.rib_bytes), "bytes");
    run.add(profile_name + ".mixed.bytes_per_route",
            base.rib.bytes_per_route(), "bytes/route");
    run.add(profile_name + ".mixed.checker_bytes",
            static_cast<double>(base.checker_bytes), "bytes");
    run.add(profile_name + ".flap.updates_off",
            static_cast<double>(off_msgs), "messages");
    run.add(profile_name + ".flap.updates_on",
            static_cast<double>(on_msgs), "messages");
    run.add(profile_name + ".flap.suppression_ratio", suppression, "x");
    run.add(profile_name + ".flap.routes_damped",
            static_cast<double>(on.bgp.routes_damped), "routes");
    run.add(profile_name + ".monitor.replay_off_ms", monitor_off_ms, "ms");
    run.add(profile_name + ".monitor.replay_on_ms", monitor_on_ms, "ms");
    run.add(profile_name + ".monitor.records",
            static_cast<double>(rib.size()), "records");
    run.add(profile_name + ".monitor.trees",
            static_cast<double>(provenance.trees.size()), "trees");
    run.add(profile_name + ".violations",
            static_cast<double>(violations), "violations");
    run.add(profile_name + ".elapsed", clock.ms(), "ms");
  }
  std::cout << "Churn convergence: mixed-trace burst distribution and the "
               "MRAI+damping suppression ratio under a persistent flapper\n";
  table.print(std::cout);
  std::cout << "(convergence in sim ticks per churn burst; 'suppression' is "
               "total UPDATE/WITHDRAW traffic with defenses off divided by "
               "defenses on over the same 30-flap script; the violations "
               "column is the online invariant checker's verdict and must "
               "be 0)\n";
}

}  // namespace miro::bench
