// verify_internet: the per-destination work of `miro_lint verify` on the
// 70k-AS internet2006 graph.
//
// Each op computes the symbolic fixpoint for one destination, checks export
// safety on it, and predicts the avoid-an-AS outcome of the op's tuples
// under all three policies. The fixpoint carries almost all of an op. The
// concrete solver and the avoid-AS engine run only in the untimed output
// check, so this is the workload that bypasses them.
#include <optional>
#include <string>

#include "analysis/symbolic_routes.hpp"
#include "bench.hpp"
#include "core/alternates.hpp"
#include "topology/generator.hpp"
#include "workload_util.hpp"

namespace perfbench {
namespace {

using miro::analysis::SymbolicRouteEngine;
using miro::analysis::SymbolicRouteMap;
using miro::core::kAllPolicies;
using miro::eval::SampledTuple;
using miro::topo::AsGraph;
using miro::topo::NodeId;

constexpr std::uint32_t kSources = 4;

class VerifyInternet final : public Workload {
 public:
  explicit VerifyInternet(bool inject_export_bug) {
    options_.inject_export_bug = inject_export_bug;
  }

  const char* work_unit() const override { return "destinations"; }
  double nominal_ops_per_s() const override { return 3.6; }
  std::uint32_t node_count() const override { return kInternetNodes; }

  void setup(Tracer& tracer) override {
    oracle_.reset();
    engine_.reset();
    graph_.reset();
    graph_ = tracer.call("topology", "topology.generate", [] {
      return std::make_unique<AsGraph>(
          miro::topo::generate(miro::topo::profile("internet2006", 1.0)));
    });
    engine_ = tracer.call(
        "analysis", "analysis.SymbolicRouteEngine.SymbolicRouteEngine", [&] {
          return std::make_unique<SymbolicRouteEngine>(*graph_, options_);
        });
    oracle_ = std::make_unique<Oracle>(*graph_);
  }

  std::uint64_t run_op(std::uint32_t destination, std::uint64_t seed,
                       Tracer& tracer) override {
    map_.reset();
    map_.emplace(tracer.call("analysis", "analysis.SymbolicRouteEngine.solve",
                             [&] { return engine_->solve(destination); }));
    const SymbolicRouteMap& map = *map_;
    export_errors_ =
        tracer.call("analysis", "analysis.check_export_safety", [&] {
          return miro::analysis::check_export_safety(*graph_, map)
              .error_count();
        });
    tuples_ = sample_tuples(*graph_, map, kSources, seed);
    predictions_.clear();
    for (const SampledTuple& tuple : tuples_) {
      for (miro::core::ExportPolicy policy : kAllPolicies) {
        predictions_.push_back(tracer.call(
            "analysis", "analysis.SymbolicRouteEngine.predict_avoid", [&] {
              return engine_->predict_avoid(map, tuple.source, tuple.avoid,
                                            policy);
            }));
      }
    }
    ++counts_.destinations;
    counts_.sweeps += map.sweeps();
    counts_.state_bytes += map.memory_bytes();
    counts_.reachable += map.reachable_count();
    counts_.tuples += tuples_.size();
    counts_.predict_calls += predictions_.size();
    counts_.export_errors += export_errors_;
    return 1;
  }

  std::string check_op() override {
    const SymbolicRouteMap& map = *map_;
    if (export_errors_ != 0)
      return "check_export_safety found " + std::to_string(export_errors_) +
             " errors";
    const miro::bgp::RoutingTree tree =
        oracle_->solver.solve(map.destination());
    for (NodeId node = 0; node < graph_->node_count(); ++node) {
      const bool reachable = tree.reachable(node);
      if (map.reachable(node) != reachable ||
          (reachable && (map.route_class(node) != tree.route_class(node) ||
                         map.path_length(node) != tree.path_length(node) ||
                         map.next_hop(node) != tree.next_hop(node)))) {
        return "fixpoint entry of node " + std::to_string(node) +
               " differs from StableRouteSolver";
      }
    }
    for (std::size_t t = 0; t < tuples_.size(); ++t) {
      const SampledTuple& tuple = tuples_[t];
      for (std::size_t p = 0; p < 3; ++p) {
        const auto actual = oracle_->engine.avoid_as(
            tree, tuple.source, tuple.avoid, kAllPolicies[p]);
        const SymbolicRouteEngine::AvoidPrediction& predicted =
            predictions_[3 * t + p];
        if (predicted.success != actual.success ||
            predicted.bgp_success != actual.bgp_success ||
            predicted.ases_contacted != actual.ases_contacted ||
            predicted.paths_received != actual.paths_received) {
          return "predict_avoid differs from avoid_as for tuple (" +
                 std::to_string(tuple.source) + ", " +
                 std::to_string(tuple.destination) + ", " +
                 std::to_string(tuple.avoid) + ") under policy " +
                 std::to_string(p);
        }
      }
    }
    return {};
  }

  void reset_counts() override { counts_ = Tally{}; }

  Counts counts() const override {
    return {{"destinations", counts_.destinations},
            {"sweeps", counts_.sweeps},
            {"state_bytes", counts_.state_bytes},
            {"reachable", counts_.reachable},
            {"tuples", counts_.tuples},
            {"predict_calls", counts_.predict_calls},
            {"export_errors", counts_.export_errors}};
  }

  void layer_metrics(const SpanTotals& spans, std::size_t ops,
                     Metrics& out) const override {
    const double n = static_cast<double>(ops);
    add_topology_metrics(spans, "topology.generate", *graph_, out);
    out.set("analysis.fixpoint_ms_per_dest",
            spans.ms("analysis.SymbolicRouteEngine.solve") / n, "ms");
    out.set("analysis.sweeps_per_dest", counts_.sweeps / n, "count");
    out.set("analysis.export_check_ms_per_dest",
            spans.ms("analysis.check_export_safety") / n, "ms");
    out.set("analysis.predict_us_per_call",
            1000 * ratio(spans.ms("analysis.SymbolicRouteEngine.predict_avoid"),
                         spans.calls(
                             "analysis.SymbolicRouteEngine.predict_avoid")),
            "us");
    out.set("analysis.state_bytes_per_dest", counts_.state_bytes / n, "B");
  }

 private:
  /// The concrete plane the fixpoint is checked against.
  struct Oracle {
    explicit Oracle(const AsGraph& graph) : solver(graph), engine(solver) {}
    miro::bgp::StableRouteSolver solver;
    miro::core::AlternatesEngine engine;
  };

  struct Tally {
    std::uint64_t destinations = 0, sweeps = 0, state_bytes = 0,
                  reachable = 0, tuples = 0, predict_calls = 0,
                  export_errors = 0;
  } counts_;

  miro::analysis::SymbolicOptions options_;
  std::unique_ptr<AsGraph> graph_;
  std::unique_ptr<SymbolicRouteEngine> engine_;
  std::unique_ptr<Oracle> oracle_;
  std::optional<SymbolicRouteMap> map_;
  std::size_t export_errors_ = 0;
  std::vector<SampledTuple> tuples_;
  std::vector<SymbolicRouteEngine::AvoidPrediction> predictions_;
};

}  // namespace

std::unique_ptr<Workload> make_verify_internet(bool inject_export_bug) {
  return std::make_unique<VerifyInternet>(inject_export_bug);
}

}  // namespace perfbench
