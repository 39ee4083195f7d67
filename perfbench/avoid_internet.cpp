// avoid_internet: the paper's headline experiment (Tables 5.2/5.3) on the
// 70k-AS internet2006 graph, one destination per op.
//
// Each op solves the destination's stable routes, draws sources and every
// Section 5.3 (source, destination, avoid) tuple on their default paths,
// precomputes source-routing reachability for those tuples, and runs the
// avoid-an-AS procedure under /s, /e and /a. The solver and reachability
// carry almost all of an op, and neither runs inside another workload's
// timed op.
#include <algorithm>
#include <optional>
#include <set>
#include <string>

#include "analysis/symbolic_routes.hpp"
#include "bench.hpp"
#include "core/alternates.hpp"
#include "eval/experiments.hpp"
#include "workload_util.hpp"

namespace perfbench {
namespace {

using miro::bgp::RoutingTree;
using miro::core::AlternatesEngine;
using miro::core::kAllPolicies;
using miro::eval::ExperimentPlan;
using miro::eval::SampledTuple;
using miro::topo::NodeId;

// Sources per destination, as the full tier of run_suite draws them.
constexpr std::uint32_t kSources = 4;

class AvoidInternet final : public Workload {
 public:
  const char* work_unit() const override { return "avoid tuples"; }
  double nominal_ops_per_s() const override { return 8.0; }
  std::uint32_t node_count() const override { return kInternetNodes; }

  void setup(Tracer& tracer) override {
    engine_.reset();
    plan_.reset();
    miro::eval::EvalConfig config;
    config.profile = "internet2006";
    config.scale = 1.0;
    // The plan solves no trees of its own: each op solves its destination.
    config.destination_samples = 0;
    plan_ = tracer.call("eval", "eval.ExperimentPlan.ExperimentPlan", [&] {
      return std::make_unique<ExperimentPlan>(config);
    });
    engine_ =
        tracer.call("core", "core.AlternatesEngine.AlternatesEngine", [&] {
          return std::make_unique<AlternatesEngine>(plan_->solver());
        });
  }

  std::uint64_t run_op(std::uint32_t destination, std::uint64_t seed,
                       Tracer& tracer) override {
    const ExperimentPlan& plan = *plan_;
    tree_.reset();
    tree_.emplace(tracer.call("bgp", "bgp.StableRouteSolver.solve", [&] {
      return plan.solver().solve(destination);
    }));
    const RoutingTree& tree = *tree_;
    tuples_ = sample_tuples(plan.graph(), tree, kSources, seed);
    tracer.call("eval", "eval.ExperimentPlan.precompute_avoidance",
                [&] { plan.precompute_avoidance(tuples_); });
    results_.clear();
    for (const SampledTuple& tuple : tuples_) {
      for (miro::core::ExportPolicy policy : kAllPolicies) {
        results_.push_back(
            tracer.call("core", "core.AlternatesEngine.avoid_as", [&] {
              return engine_->avoid_as(tree, tuple.source, tuple.avoid,
                                       policy);
            }));
      }
    }
    count_op();
    return tuples_.size();
  }

  std::string check_op() override {
    const ExperimentPlan& plan = *plan_;
    const miro::topo::AsGraph& graph = plan.graph();
    const RoutingTree& tree = *tree_;
    const miro::analysis::Report safety =
        miro::analysis::check_export_safety(graph, tree);
    if (safety.error_count() != 0)
      return "check_export_safety found " +
             std::to_string(safety.error_count()) + " errors on the tree";
    for (std::size_t t = 0; t < tuples_.size(); ++t) {
      const SampledTuple& tuple = tuples_[t];
      const AlternatesEngine::AvoidResult* r = &results_[3 * t];
      const bool reachable =
          plan.avoid_reachable(tuple.destination, tuple.avoid)[tuple.source];
      const std::string at = " for tuple (" + std::to_string(tuple.source) +
                             ", " + std::to_string(tuple.destination) + ", " +
                             std::to_string(tuple.avoid) + ")";
      for (int p = 0; p < 3; ++p) {
        if (r[0].bgp_success && !r[p].success)
          return "plain BGP avoids the AS but policy " + std::to_string(p) +
                 " fails" + at;
        if (p > 0 && r[p - 1].success && !r[p].success)
          return "success is not monotone from /s to /e to /a" + at;
        if (r[p].success && !reachable)
          return "success although source routing cannot avoid the AS" + at;
        if (r[p].success) {
          if (!r[p].chosen) return "success without a chosen path" + at;
          const std::string bad = path_problem(
              graph, r[p].chosen->as_path, tuple.source, tuple.destination,
              tuple.avoid);
          if (!bad.empty()) return "chosen path " + bad + at;
        }
      }
    }
    return {};
  }

  void reset_counts() override { counts_ = Tally{}; }

  Counts counts() const override {
    return {{"solve_calls", counts_.solves},
            {"routes", counts_.routes},
            {"tree_bytes", counts_.tree_bytes},
            {"tuples", counts_.tuples},
            {"reach_keys", counts_.reach_keys},
            {"avoid_calls", counts_.avoid_calls},
            {"source_ok", counts_.source_ok},
            {"bgp_ok", counts_.bgp_ok},
            {"multi_ok_s", counts_.multi_ok[0]},
            {"multi_ok_e", counts_.multi_ok[1]},
            {"multi_ok_a", counts_.multi_ok[2]},
            {"hard_tuples", counts_.hard_tuples},
            {"hard_contacted", counts_.hard_contacted},
            {"hard_paths", counts_.hard_paths}};
  }

  void layer_metrics(const SpanTotals& spans, std::size_t ops,
                     Metrics& out) const override {
    const double n = static_cast<double>(ops);
    add_topology_metrics(spans, "eval.ExperimentPlan.ExperimentPlan",
                         plan_->graph(), out);
    out.set("bgp.solve_calls", static_cast<double>(counts_.solves), "count");
    out.set("bgp.routes_per_tree", ratio(counts_.routes, counts_.solves),
            "count");
    out.set("bgp.solve_ms_per_call",
            ratio(spans.ms("bgp.StableRouteSolver.solve"),
                  spans.calls("bgp.StableRouteSolver.solve")),
            "ms");
    out.set("bgp.tree_bytes_per_route",
            ratio(counts_.tree_bytes, counts_.routes), "B");
    out.set("eval.tuples_per_op", counts_.tuples / n, "count");
    out.set("eval.reach_keys_per_op", counts_.reach_keys / n, "count");
    out.set("eval.reach_ms_per_key",
            ratio(spans.ms("eval.ExperimentPlan.precompute_avoidance"),
                  counts_.reach_keys),
            "ms");
    out.set("eval.source_ok_frac", ratio(counts_.source_ok, counts_.tuples),
            "fraction");
    out.set("core.avoid_us_per_call",
            1000 * ratio(spans.ms("core.AlternatesEngine.avoid_as"),
                         spans.calls("core.AlternatesEngine.avoid_as")),
            "us");
    out.set("core.bgp_ok_frac", ratio(counts_.bgp_ok, counts_.tuples),
            "fraction");
    const char* suffix[] = {"s", "e", "a"};
    for (int p = 0; p < 3; ++p) {
      out.set(std::string("core.multi_ok_frac.") + suffix[p],
              ratio(counts_.multi_ok[p], counts_.tuples), "fraction");
    }
    // Table 5.3: negotiation work per hard tuple (plain BGP fails), summed
    // over the three policies' attempts and divided by those attempts.
    out.set("core.contacted_per_hard_tuple",
            ratio(counts_.hard_contacted, 3.0 * counts_.hard_tuples), "count");
    out.set("core.paths_per_hard_tuple",
            ratio(counts_.hard_paths, 3.0 * counts_.hard_tuples), "count");
  }

 private:
  void count_op() {
    const RoutingTree& tree = *tree_;
    ++counts_.solves;
    counts_.routes += tree.reachable_count();
    counts_.tree_bytes += tree.memory_bytes();
    counts_.tuples += tuples_.size();
    counts_.avoid_calls += results_.size();
    std::set<NodeId> avoided;
    for (std::size_t t = 0; t < tuples_.size(); ++t) {
      const SampledTuple& tuple = tuples_[t];
      avoided.insert(tuple.avoid);
      if (plan_->avoid_reachable(tuple.destination, tuple.avoid)[tuple.source])
        ++counts_.source_ok;
      const AlternatesEngine::AvoidResult* r = &results_[3 * t];
      const bool bgp_ok = r[0].bgp_success;
      if (bgp_ok) ++counts_.bgp_ok;
      if (!bgp_ok) ++counts_.hard_tuples;
      for (int p = 0; p < 3; ++p) {
        if (r[p].success) ++counts_.multi_ok[p];
        if (!bgp_ok) {
          counts_.hard_contacted += r[p].ases_contacted;
          counts_.hard_paths += r[p].paths_received;
        }
      }
    }
    // Every op has a fresh destination, so each of its (destination, avoid)
    // keys is new to the plan's reachability cache.
    counts_.reach_keys += avoided.size();
  }

  struct Tally {
    std::uint64_t solves = 0, routes = 0, tree_bytes = 0, tuples = 0,
                  reach_keys = 0, avoid_calls = 0, source_ok = 0, bgp_ok = 0,
                  hard_tuples = 0, hard_contacted = 0, hard_paths = 0;
    std::uint64_t multi_ok[3] = {0, 0, 0};
  } counts_;

  std::unique_ptr<ExperimentPlan> plan_;
  std::unique_ptr<AlternatesEngine> engine_;
  std::optional<RoutingTree> tree_;
  std::vector<SampledTuple> tuples_;
  std::vector<AlternatesEngine::AvoidResult> results_;
};

}  // namespace

std::unique_ptr<Workload> make_avoid_internet() {
  return std::make_unique<AvoidInternet>();
}

}  // namespace perfbench
