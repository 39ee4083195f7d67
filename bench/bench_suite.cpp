// The suite runner behind `run_suite` (run_suite.cpp). It builds the
// inputs the selected benches share — one ExperimentPlan per profile, one
// graph per (profile, scale) for the graph-only benches — and then runs
// each bench in-process with its own profiler and memory registries,
// merging their rows into one document: the format the perf-regression gate
// (bench_compare, obs/regression.hpp) consumes and BENCH_PR3.json /
// BENCH_FULL.json are checked in as:
//   {"suite":"miro-bench","schema":1,"config":{...},"setup":{...},
//    "benches":{"<bench>":{"config":{...},"results":[...],
//                          "profile":{...},"memory":{...}}}}
// "setup" holds the span summary of the shared-input build, which runs
// before any bench starts its clock. Bench tables go to stdout (they are
// the human-readable reproduction).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace miro::bench {
namespace {

// Every reproduction bench. The full-tier mark admits a bench to --full:
// those whose cost is dominated by the sampled work (per-destination
// solves, per-tuple negotiations) stay affordable at 70k nodes, while the
// ones that sweep every node or replay message-level churn do not.
const std::vector<BenchSpec> kBenches = {
    {"bench_table_5_1_datasets", table_5_1_datasets, Input::Graph, true},
    {"bench_fig_5_1_degree_distribution", fig_5_1_degree_distribution,
     Input::Graph, true},
    {"bench_fig_5_2_5_3_path_diversity", fig_5_2_5_3_path_diversity,
     Input::Plan, true},
    {"bench_table_5_2_avoid_success", table_5_2_avoid_success,
     Input::Avoidance, true},
    {"bench_table_5_3_negotiation_state", table_5_3_negotiation_state,
     Input::Avoidance, true},
    {"bench_fig_5_4_5_5_incremental", fig_5_4_5_5_incremental, Input::Plan,
     true},
    {"bench_fig_5_6_5_7_traffic_control", fig_5_6_5_7_traffic_control,
     Input::Plan, false},
    {"bench_convergence_lab", convergence_lab, Input::None, false},
    {"bench_ablation_te_mechanisms", ablation_te_mechanisms, Input::Plan,
     false},
    {"bench_ablation_negotiation_scope", ablation_negotiation_scope,
     Input::Plan, false},
    {"bench_inference_accuracy", inference_accuracy, Input::Graph, false},
    {"bench_overhead_messages", overhead_messages, Input::HalfScaleGraph,
     false},
    {"bench_churn_convergence", churn_convergence, Input::HalfScaleGraph,
     false},
    {"bench_verify_fixpoint", verify_fixpoint, Input::Plan, true},
    {"bench_internet_scale", internet_scale, Input::None, true},
};

/// The sim config every bench ran under; values are JSON number tokens
/// stored as strings, as the checked-in baselines have them.
JsonValue bench_config(const SuiteArgs& args) {
  std::string profiles;
  for (const std::string& profile : args.profiles())
    profiles += (profiles.empty() ? "" : ",") + profile;
  auto text = [](double value) {
    return JsonValue::make_string(json_number(value));
  };
  JsonValue config = JsonValue::make_object();
  config.set("profiles", JsonValue::make_string(profiles));
  config.set("scale", text(args.scale));
  config.set("dests", text(static_cast<double>(args.dests)));
  config.set("sources", text(static_cast<double>(args.sources)));
  config.set("seed", text(static_cast<double>(args.seed)));
  return config;
}

JsonValue suite_config(const SuiteArgs& args) {
  auto number = [](double value) { return JsonValue::make_number(value); };
  JsonValue config = JsonValue::make_object();
  config.set("scale", number(args.scale));
  config.set("dests", number(static_cast<double>(args.dests)));
  config.set("sources", number(static_cast<double>(args.sources)));
  config.set("seed", number(static_cast<double>(args.seed)));
  config.set("profile", JsonValue::make_string(
                            args.profile.empty() ? "all" : args.profile));
  return config;
}

/// Attaches a fresh profiler and memory registry for one phase (the setup
/// or one bench) and detaches them on scope exit.
struct PhaseRegistries {
  obs::ProfileRegistry profile;
  obs::MemoryRegistry memory;
  PhaseRegistries() {
    obs::set_profile(&profile);
    obs::set_memory(&memory);
  }
  ~PhaseRegistries() {
    obs::set_memory(nullptr);
    obs::set_profile(nullptr);
  }
  PhaseRegistries(const PhaseRegistries&) = delete;
  PhaseRegistries& operator=(const PhaseRegistries&) = delete;
};

}  // namespace

const std::vector<BenchSpec>& bench_table() { return kBenches; }

std::vector<const BenchSpec*> select_benches(const SuiteArgs& args,
                                             const char* argv0) {
  auto named = [&](const std::string& name) {
    return std::find(args.benches.begin(), args.benches.end(), name) !=
           args.benches.end();
  };
  std::vector<const BenchSpec*> selected;
  for (const BenchSpec& spec : kBenches) {
    if (args.benches.empty() ? !args.full || spec.full_tier : named(spec.name))
      selected.push_back(&spec);
  }
  auto chosen = [&](const std::string& name) {
    return std::any_of(selected.begin(), selected.end(),
                       [&](const BenchSpec* spec) { return name == spec->name; });
  };
  for (const std::string& name : args.benches) {
    if (!chosen(name)) usage_error(argv0, "unknown bench " + name);
  }
  if (!args.save.empty() && !chosen("bench_internet_scale"))
    usage_error(argv0, "--save needs bench_internet_scale");
  return selected;
}

/// Beyond the plan itself, the tuple sample and (for the avoid-AS tables)
/// the reachability sets are memoized here, so no bench's clock pays for
/// work a sibling bench also reads, whatever the run order.
SharedInputs build_inputs(const SuiteArgs& args,
                          const std::vector<const BenchSpec*>& benches) {
  auto reads = [&](Input input) {
    return std::any_of(
        benches.begin(), benches.end(),
        [&](const BenchSpec* spec) { return spec->input == input; });
  };
  const bool plan = reads(Input::Plan) || reads(Input::Avoidance);
  SharedInputs inputs;
  for (const std::string& profile : args.profiles()) {
    ProfileInputs& in = inputs[profile];
    if (plan) {
      in.plan = std::make_unique<eval::ExperimentPlan>(
          args.config_for(profile));
      const auto& tuples = in.plan->sample_tuples(args.sources);
      if (reads(Input::Avoidance)) in.plan->precompute_avoidance(tuples);
    } else if (reads(Input::Graph)) {
      in.graph = std::make_unique<topo::AsGraph>(
          topo::generate(topo::profile(profile, args.scale)));
    }
    if (reads(Input::HalfScaleGraph)) {
      in.half_scale_graph = std::make_unique<topo::AsGraph>(
          topo::generate(topo::profile(profile, args.scale * 0.5)));
    }
  }
  return inputs;
}

SuiteResult run_suite(const SuiteArgs& args,
                      const std::vector<const BenchSpec*>& benches) {
  const Stopwatch setup_clock;
  SharedInputs inputs;
  JsonValue setup = JsonValue::make_object();
  {
    PhaseRegistries registries;
    inputs = build_inputs(args, benches);
    add_registry_sections(setup, registries.profile, registries.memory);
  }
  std::printf("== shared inputs: %.1f s\n", setup_clock.ms() / 1000.0);

  SuiteResult result;
  const JsonValue config = bench_config(args);
  JsonValue sections = JsonValue::make_object();
  for (const BenchSpec* spec : benches) {
    std::printf("== %s\n", spec->name);
    std::fflush(stdout);
    const Stopwatch clock;
    PhaseRegistries registries;
    Run run(args, inputs);
    bool ok = true;
    try {
      spec->run(run);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "run_suite: %s failed: %s\n", spec->name,
                   error.what());
      ok = false;
    }
    std::printf("== %s: %.1f s%s\n", spec->name, clock.ms() / 1000.0,
                ok ? "" : " (FAILED)");
    if (!ok) {
      ++result.failed;
      continue;
    }
    ++result.ran;
    JsonValue snapshot = JsonValue::make_object();
    snapshot.set("config", config);
    snapshot.set("results", run.results());
    add_registry_sections(snapshot, registries.profile, registries.memory);
    sections.set(spec->name, std::move(snapshot));
  }

  result.document = JsonValue::make_object();
  result.document.set("suite", JsonValue::make_string("miro-bench"));
  result.document.set("schema", JsonValue::make_number(1));
  result.document.set("config", suite_config(args));
  result.document.set("setup", std::move(setup));
  result.document.set("benches", std::move(sections));
  return result;
}

}  // namespace miro::bench
