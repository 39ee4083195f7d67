// live_planes: MIRO's negotiation, tunnel and BGP planes running live on
// gao2005 (5,200 ASes), one destination per op.
//
// Each op negotiates, on a lossy control plane, every alternate the /e
// avoid-AS procedure says a sampled source needs, installs the tunnels in a
// long-lived data plane, forwards one packet from every AS (the uniform
// traffic of Section 5.4), and replays a short seeded churn trace with those
// tunnels watched and the invariant checker on. It is the only workload that
// runs netsim, session BGP, churn, the agents and the data plane, and the
// only one that writes RIB state on every message. MRAI and flap damping
// are on: without them a few destinations set off path-exploration storms
// of over a million messages.
#include <algorithm>
#include <map>
#include <optional>
#include <string>

#include "bench.hpp"
#include "churn/replayer.hpp"
#include "core/alternates.hpp"
#include "core/protocol.hpp"
#include "core/route_store.hpp"
#include "dataplane/forwarding.hpp"
#include "netsim/fault_injection.hpp"
#include "netsim/scheduler.hpp"
#include "topology/generator.hpp"
#include "workload_util.hpp"

namespace perfbench {
namespace {

using miro::core::AlternatesEngine;
using miro::core::MiroAgent;
using miro::core::NegotiationOutcome;
using miro::core::SplicedPath;
using miro::dataplane::TraceHop;
using miro::eval::SampledTuple;
using miro::topo::AsGraph;
using miro::topo::NodeId;

constexpr const char* kProfile = "gao2005";
constexpr std::uint32_t kSources = 8;
// The fault regime of the negotiation plane: 5% loss, 2% duplication and up
// to 20 ticks of reorder jitter on every link.
constexpr miro::sim::LinkFaultProfile kFaults{0.05, 0.02, 20};
// A short mixed trace of link flaps and session resets per destination.
// Prefix flaps and hijacks are left out: each sets off a network-wide storm,
// and how many an op drew decided most of its cost, so 40-op medians moved
// by 14% from seed to seed with them and by 5% without.
constexpr miro::sim::Time kChurnDuration = 3000;
constexpr std::size_t kChurnEpisodes = 4;

class LivePlanes final : public Workload {
 public:
  const char* work_unit() const override { return "scenarios"; }
  double nominal_ops_per_s() const override { return 9.0; }
  std::uint32_t node_count() const override {
    return static_cast<std::uint32_t>(
        miro::topo::profile(kProfile, 1.0).node_count);
  }

  void setup(Tracer& tracer) override {
    engine_.reset();
    dataplane_.reset();
    store_.reset();
    graph_.reset();
    graph_ = tracer.call("topology", "topology.generate", [] {
      return std::make_unique<AsGraph>(
          miro::topo::generate(miro::topo::profile(kProfile, 1.0)));
    });
    store_ = tracer.call("core", "core.RouteStore.RouteStore", [&] {
      return std::make_unique<miro::core::RouteStore>(*graph_);
    });
    dataplane_ = tracer.call(
        "dataplane", "dataplane.AsLevelDataPlane.AsLevelDataPlane", [&] {
          return std::make_unique<miro::dataplane::AsLevelDataPlane>(*store_);
        });
    engine_ =
        tracer.call("core", "core.AlternatesEngine.AlternatesEngine", [&] {
          return std::make_unique<AlternatesEngine>(store_->solver());
        });
    hosts_.clear();
    for (NodeId as = 0; as < graph_->node_count(); ++as) {
      hosts_.push_back(
          tracer.call("dataplane", "dataplane.AsLevelDataPlane.host_address",
                      [&] { return dataplane_->host_address(as); }));
    }
  }

  std::uint64_t run_op(std::uint32_t destination, std::uint64_t seed,
                       Tracer& tracer) override {
    const AsGraph& graph = *graph_;
    const std::size_t trees_before = store_->tree_count();
    Tally op;
    const miro::bgp::RoutingTree& tree = store_tree(destination, op, tracer);

    // Every tuple whose /e avoid-AS outcome needs a negotiation.
    negotiations_.clear();
    for (const SampledTuple& tuple :
         sample_tuples(graph, tree, kSources, derive_seed(seed, 3, 0))) {
      ++op.tuples;
      auto result = tracer.call("core", "core.AlternatesEngine.avoid_as", [&] {
        return engine_->avoid_as(tree, tuple.source, tuple.avoid,
                                 miro::core::ExportPolicy::RespectExport);
      });
      if (result.success && !result.bgp_success)
        negotiations_.push_back({tuple, std::move(*result.chosen), {}});
    }
    const Negotiated negotiated = negotiate(destination, seed, tracer);

    // At most one tunnel per (source, destination): the first established.
    std::vector<miro::core::TunnelMonitor::WatchedTunnel> watched;
    std::map<NodeId, NodeId> avoid_at_head;
    for (const Negotiation& n : negotiations_) {
      const NodeId source = n.tuple.source;
      if (!n.outcome.established || avoid_at_head.count(source) != 0) continue;
      avoid_at_head[source] = n.tuple.avoid;
      SplicedPath spliced;
      spliced.as_path.assign(
          n.chosen.as_path.begin(),
          n.chosen.as_path.begin() + n.chosen.responder_index + 1);
      spliced.as_path.insert(spliced.as_path.end(),
                             n.outcome.route.path.begin() + 1,
                             n.outcome.route.path.end());
      spliced.responder = n.outcome.responder;
      spliced.responder_index = n.chosen.responder_index;
      spliced.offered = n.outcome.route;
      tracer.call("dataplane", "dataplane.AsLevelDataPlane.install_tunnel",
                  [&] { return dataplane_->install_tunnel(spliced); });
      ++op.tunnels_installed;
      watched.push_back({n.outcome.tunnel_id, source, n.outcome.responder,
                         destination, n.outcome.route.path, n.tuple.avoid,
                         false});
    }

    // A packet tunneled to a responder is forwarded on the responder's
    // tree. Solve those here, so the data plane never solves one inside a
    // trace call.
    for (const auto& tunnel : watched) store_tree(tunnel.responder, op, tracer);

    // One packet from every AS toward the destination.
    delivered_.assign(graph.node_count(), 0);
    for (NodeId as = 0; as < graph.node_count(); ++as) {
      if (as == destination) continue;
      const miro::dataplane::TraceResult result =
          tracer.call("dataplane", "dataplane.AsLevelDataPlane.trace", [&] {
            return dataplane_->trace(
                miro::net::Packet(hosts_[as], hosts_[destination]), as);
          });
      ++op.packets;
      op.hops += result.hops.size();
      delivered_[as] = result.delivered ? 1 : 0;
      op.delivered += delivered_[as];
      const auto encap =
          std::find_if(result.hops.begin(), result.hops.end(),
                       [](const TraceHop& hop) {
                         return hop.action == TraceHop::Action::Encapsulate;
                       });
      if (encap != result.hops.end()) {
        ++op.encapsulated;
        const auto head = avoid_at_head.find(encap->as);
        if (head != avoid_at_head.end() && !result.traversed(head->second))
          ++op.tunnel_avoided;
      }
    }

    miro::churn::ChurnTraceConfig churn_config;
    churn_config.seed = derive_seed(seed, 5, 0);
    churn_config.duration = kChurnDuration;
    churn_config.episodes = kChurnEpisodes;
    churn_config.prefix_flap_weight = 0;
    churn_config.hijack_weight = 0;
    const miro::churn::ChurnTrace trace =
        tracer.call("churn", "churn.generate_churn_trace", [&] {
          return miro::churn::generate_churn_trace(graph, destination,
                                                   churn_config);
        });
    miro::churn::ReplayConfig replay_config;
    replay_config.defense.mrai = 60;
    replay_config.defense.damping_enabled = true;
    replay_config.tunnels = std::move(watched);
    // The checkpoint cadence of bench_churn_convergence; at the default 200
    // ticks the checker took half of each replay.
    replay_config.checkpoint_interval = 1000;
    replay_.reset();
    replay_.emplace(tracer.call("churn", "churn.replay_churn", [&] {
      return miro::churn::replay_churn(graph, trace, replay_config);
    }));

    op.trace_events = trace.events.size();
    // Every tree the op solved, including any solved outside store_tree.
    op.store_growth = store_->tree_count() - trees_before;
    count_op(negotiated, op);
    destination_ = destination;
    unspanned_solves_ = op.store_growth - op.solves;
    return 1;
  }

  std::string check_op() override {
    if (unspanned_solves_ != 0)
      return std::to_string(unspanned_solves_) +
             " trees were solved outside core.RouteStore.tree";
    for (const Negotiation& n : negotiations_) {
      const std::string at = " (source " + std::to_string(n.tuple.source) +
                             ", avoid " + std::to_string(n.tuple.avoid) + ")";
      if (!n.outcome.established)
        return "negotiation with " + std::to_string(n.chosen.responder) +
               " failed" + at;
      if (n.outcome.responder != n.chosen.responder ||
          n.outcome.route.path != n.chosen.offered.path)
        return "tunnel is not bound to the route avoid_as chose" + at;
    }
    const miro::bgp::RoutingTree stable =
        miro::bgp::StableRouteSolver(*graph_).solve(destination_);
    for (NodeId as = 0; as < graph_->node_count(); ++as) {
      if (as == destination_) continue;
      if ((delivered_[as] != 0) != stable.reachable(as))
        return "packet from " + std::to_string(as) +
               (delivered_[as] != 0 ? " delivered although unreachable"
                                    : " dropped although reachable");
    }
    if (!replay_->ok())
      return "replay_churn reported " +
             std::to_string(replay_->violations.size()) + " violations, " +
             replay_->violations.front().property + ": " +
             replay_->violations.front().detail;
    return {};
  }

  void reset_counts() override {
    counts_ = Tally{};
    convergence_ticks_.clear();
  }

  Counts counts() const override {
    const Tally& c = counts_;
    return {{"solve_calls", c.solves},
            {"routes", c.routes},
            {"tuples", c.tuples},
            {"negotiations", c.negotiations},
            {"established", c.established},
            {"retransmissions", c.retransmissions},
            {"duplicates_suppressed", c.duplicates_suppressed},
            {"tunnels_installed", c.tunnels_installed},
            {"negotiation_events", c.negotiation_events},
            {"replay_events", c.replay_events},
            {"bus_sent", c.bus_sent},
            {"fault_dropped", c.fault_dropped},
            {"fault_duplicated", c.fault_duplicated},
            {"packets", c.packets},
            {"hops", c.hops},
            {"delivered", c.delivered},
            {"encapsulated", c.encapsulated},
            {"tunnel_avoided", c.tunnel_avoided},
            {"session_msgs", c.session_msgs},
            {"coalesced", c.coalesced},
            {"updates_suppressed", c.updates_suppressed},
            {"rib_bytes", c.rib_bytes},
            {"rib_routes", c.rib_routes},
            {"trace_events", c.trace_events},
            {"checkpoints", c.checkpoints},
            {"solver_comparisons", c.solver_comparisons},
            {"tunnels_torn", c.tunnels_torn},
            {"bursts", c.bursts},
            {"burst_msgs", c.burst_msgs},
            {"checker_bytes_max", c.checker_bytes_max}};
  }

  void layer_metrics(const SpanTotals& spans, std::size_t ops,
                     Metrics& out) const override {
    const Tally& c = counts_;
    const double n = static_cast<double>(ops);
    add_topology_metrics(spans, "topology.generate", *graph_, out);
    const double store_ms = spans.ms("core.RouteStore.tree");
    out.set("bgp.solve_calls", static_cast<double>(c.solves), "count");
    out.set("bgp.routes_per_tree", ratio(c.routes, c.solves), "count");
    // Every solve runs inside a core.RouteStore.tree span; the calls that
    // find a tree already solved cost next to nothing.
    out.set("bgp.solve_ms_per_call", ratio(store_ms, c.solves), "ms");
    const std::uint64_t events = c.negotiation_events + c.replay_events;
    const double event_ms =
        spans.ms("churn.replay_churn") + spans.ms("netsim.Scheduler.run_one");
    out.set("netsim.sched_events_per_op", events / n, "count");
    out.set("netsim.events_per_s", 1000 * ratio(events, event_ms), "1/s");
    out.set("netsim.bus_sent", static_cast<double>(c.bus_sent), "count");
    out.set("netsim.fault_dropped", static_cast<double>(c.fault_dropped),
            "count");
    out.set("netsim.fault_duplicated", static_cast<double>(c.fault_duplicated),
            "count");
    out.set("bgp.session_msgs_per_op", c.session_msgs / n, "count");
    out.set("bgp.coalesced", static_cast<double>(c.coalesced), "count");
    out.set("bgp.updates_suppressed",
            static_cast<double>(c.updates_suppressed), "count");
    out.set("bgp.rib_bytes_per_route", ratio(c.rib_bytes, c.rib_routes), "B");
    out.set("churn.replay_ms_per_op", spans.ms("churn.replay_churn") / n, "ms");
    out.set("churn.trace_events", static_cast<double>(c.trace_events),
            "count");
    out.set("churn.checkpoints", static_cast<double>(c.checkpoints), "count");
    out.set("churn.solver_comparisons",
            static_cast<double>(c.solver_comparisons), "count");
    out.set("churn.tunnels_torn", static_cast<double>(c.tunnels_torn),
            "count");
    std::vector<std::uint64_t> ticks = convergence_ticks_;
    std::sort(ticks.begin(), ticks.end());
    out.set("churn.convergence_p50_ticks",
            ticks.empty() ? 0.0 : static_cast<double>(ticks[ticks.size() / 2]),
            "ticks");
    out.set("churn.msgs_per_burst", ratio(c.burst_msgs, c.bursts), "count");
    out.set("churn.checker_bytes", static_cast<double>(c.checker_bytes_max),
            "B");
    out.set("core.negotiations", static_cast<double>(c.negotiations), "count");
    out.set("core.established_frac", ratio(c.established, c.negotiations),
            "fraction");
    out.set("core.retransmissions", static_cast<double>(c.retransmissions),
            "count");
    out.set("core.duplicates_suppressed",
            static_cast<double>(c.duplicates_suppressed), "count");
    // The whole negotiation phase: agents, requests and the events that
    // carry the handshakes.
    out.set("core.negotiate_ms_per_op",
            (spans.ms("core.MiroAgent.MiroAgent") +
             spans.ms("core.MiroAgent.request") +
             spans.ms("netsim.Scheduler.run_one")) /
                n,
            "ms");
    out.set("core.route_store_ms_per_op", store_ms / n, "ms");
    out.set("dataplane.packets_per_s",
            1000 * ratio(c.packets,
                         spans.ms("dataplane.AsLevelDataPlane.trace")),
            "1/s");
    out.set("dataplane.hops_per_packet", ratio(c.hops, c.packets), "count");
    out.set("dataplane.encap_frac", ratio(c.encapsulated, c.packets),
            "fraction");
    out.set("dataplane.tunnel_avoid_frac",
            ratio(c.tunnel_avoided, c.encapsulated), "fraction");
  }

 private:
  struct Negotiation {
    SampledTuple tuple;
    SplicedPath chosen;  ///< what avoid_as (/e) picked
    NegotiationOutcome outcome;
  };

  struct Tally {
    std::uint64_t solves = 0, routes = 0, tuples = 0, negotiations = 0,
                  established = 0, retransmissions = 0,
                  duplicates_suppressed = 0, tunnels_installed = 0,
                  negotiation_events = 0, replay_events = 0, bus_sent = 0,
                  fault_dropped = 0, fault_duplicated = 0, packets = 0,
                  hops = 0, delivered = 0, encapsulated = 0,
                  tunnel_avoided = 0, session_msgs = 0, coalesced = 0,
                  updates_suppressed = 0, rib_bytes = 0, rib_routes = 0,
                  trace_events = 0, checkpoints = 0, solver_comparisons = 0,
                  tunnels_torn = 0, bursts = 0, burst_msgs = 0,
                  checker_bytes_max = 0;
    /// Per op only: trees the store gained over the whole op.
    std::uint64_t store_growth = 0;
  };

  /// Negotiation-plane totals of one op.
  struct Negotiated {
    std::uint64_t events = 0, retransmissions = 0, duplicates_suppressed = 0,
                  bus_sent = 0, fault_dropped = 0, fault_duplicated = 0;
  };

  /// Runs every pending negotiation on a fresh lossy control plane until
  /// each has completed; outcomes land in negotiations_.
  Negotiated negotiate(NodeId destination, std::uint64_t seed,
                       Tracer& tracer) {
    Negotiated totals;
    if (negotiations_.empty()) return totals;
    miro::sim::Scheduler scheduler;
    miro::core::Bus bus(scheduler);
    miro::sim::FaultPlane faults(derive_seed(seed, 4, 0));
    faults.set_default_profile(kFaults);
    bus.set_fault_plane(&faults);
    miro::core::SoftStateConfig soft_state;
    soft_state.rng_seed = derive_seed(seed, 4, 1);
    std::map<NodeId, std::unique_ptr<MiroAgent>> agents;
    auto agent = [&](NodeId as) -> MiroAgent& {
      auto& slot = agents[as];
      if (!slot) {
        slot = tracer.call("core", "core.MiroAgent.MiroAgent", [&] {
          return std::make_unique<MiroAgent>(
              as, *store_, bus, miro::core::ResponderConfig{}, soft_state);
        });
      }
      return *slot;
    };
    for (const Negotiation& n : negotiations_) {
      agent(n.tuple.source);
      agent(n.chosen.responder);
    }
    std::size_t done = 0;
    for (Negotiation& n : negotiations_) {
      const NodeId arrival = n.chosen.as_path[n.chosen.responder_index - 1];
      tracer.call("core", "core.MiroAgent.request", [&] {
        return agent(n.tuple.source)
            .request(n.chosen.responder, arrival, destination, n.tuple.avoid,
                     std::nullopt, [&n, &done](const NegotiationOutcome& o) {
                       n.outcome = o;
                       ++done;
                     });
      });
    }
    while (done < negotiations_.size()) {
      ++totals.events;
      if (!tracer.call("netsim", "netsim.Scheduler.run_one",
                       [&] { return scheduler.run_one(); }))
        break;
    }
    for (const auto& [as, a] : agents) {
      totals.retransmissions += a->stats().retransmissions;
      totals.duplicates_suppressed += a->stats().duplicates_suppressed;
    }
    totals.bus_sent = bus.stats().sent;
    totals.fault_dropped = faults.totals().dropped;
    totals.fault_duplicated = faults.totals().duplicated;
    return totals;
  }

  /// RouteStore::tree in its span. A tree the store had not solved before
  /// counts as a solve of the op.
  const miro::bgp::RoutingTree& store_tree(NodeId destination, Tally& op,
                                           Tracer& tracer) {
    const std::size_t before = store_->tree_count();
    const miro::bgp::RoutingTree& tree =
        tracer.call("core", "core.RouteStore.tree",
                    [&]() -> const miro::bgp::RoutingTree& {
                      return store_->tree(destination);
                    });
    if (store_->tree_count() != before) {
      ++op.solves;
      op.routes += tree.reachable_count();
    }
    return tree;
  }

  void count_op(const Negotiated& negotiated, const Tally& op) {
    Tally& c = counts_;
    c.solves += op.store_growth;
    c.routes += op.routes;
    for (const Negotiation& n : negotiations_) {
      ++c.negotiations;
      if (n.outcome.established) ++c.established;
    }
    c.tuples += op.tuples;
    c.tunnels_installed += op.tunnels_installed;
    c.negotiation_events += negotiated.events;
    c.retransmissions += negotiated.retransmissions;
    c.duplicates_suppressed += negotiated.duplicates_suppressed;
    c.bus_sent += negotiated.bus_sent;
    c.fault_dropped += negotiated.fault_dropped;
    c.fault_duplicated += negotiated.fault_duplicated;
    c.packets += op.packets;
    c.hops += op.hops;
    c.delivered += op.delivered;
    c.encapsulated += op.encapsulated;
    c.tunnel_avoided += op.tunnel_avoided;
    const miro::churn::ReplayResult& r = *replay_;
    c.replay_events += r.scheduler_events;
    c.session_msgs += r.bgp.updates_sent + r.bgp.withdrawals_sent;
    c.coalesced += r.bgp.coalesced;
    c.updates_suppressed += r.bgp.updates_suppressed;
    c.rib_bytes += r.rib.rib_bytes;
    c.rib_routes += r.rib.routes;
    c.trace_events += op.trace_events;
    c.checkpoints += r.checker.checkpoints;
    c.solver_comparisons += r.checker.solver_comparisons;
    c.tunnels_torn += r.tunnels_torn;
    c.checker_bytes_max = std::max<std::uint64_t>(c.checker_bytes_max,
                                                  r.checker_bytes);
    for (const miro::churn::ConvergenceSample& sample : r.convergence) {
      ++c.bursts;
      c.burst_msgs += sample.messages;
      convergence_ticks_.push_back(sample.duration());
    }
  }

  Tally counts_;
  std::vector<std::uint64_t> convergence_ticks_;
  std::unique_ptr<AsGraph> graph_;
  std::unique_ptr<miro::core::RouteStore> store_;
  std::unique_ptr<miro::dataplane::AsLevelDataPlane> dataplane_;
  std::unique_ptr<AlternatesEngine> engine_;
  std::vector<miro::net::Ipv4Address> hosts_;
  std::vector<Negotiation> negotiations_;
  std::vector<char> delivered_;
  std::optional<miro::churn::ReplayResult> replay_;
  NodeId destination_ = 0;
  std::uint64_t unspanned_solves_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_live_planes() {
  return std::make_unique<LivePlanes>();
}

}  // namespace perfbench
