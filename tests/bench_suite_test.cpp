// Tests for the bench suite runner (bench/bench_suite.cpp), run in-process
// on the small "tiny" topology profile:
//   - the bench table keeps the checked-in baselines' bench keys, and the
//     positional names select benches in table order;
//   - the shared inputs are built once per profile, only the ones a
//     selected bench reads: one ExperimentPlan serves every plan bench and
//     the graph-only benches; no bench rebuilds them inside its clock;
//   - a bench's input accessors refuse an input its table entry does not
//     name and set the bench's memory accounts;
//   - every bench runs into one merged document, a bench that throws is
//     left out and counted, value rows are identical at any thread count,
//     and --save writes the graph bench_internet_scale measured.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "obs/memstats.hpp"
#include "obs/profile.hpp"
#include "obs/regression.hpp"
#include "topology/generator.hpp"
#include "topology/serialization.hpp"

namespace miro::bench {
namespace {

SuiteArgs tiny_args(std::initializer_list<const char*> benches = {}) {
  SuiteArgs args;
  args.profile = "tiny";
  args.scale = 1.0;
  args.dests = 4;
  args.sources = 3;
  args.benches.assign(benches.begin(), benches.end());
  return args;
}

std::vector<std::string> names(const std::vector<const BenchSpec*>& specs) {
  std::vector<std::string> out;
  for (const BenchSpec* spec : specs) out.emplace_back(spec->name);
  return out;
}

std::set<std::string> bench_keys(const JsonValue& doc) {
  std::set<std::string> keys;
  for (const auto& [name, section] : doc.at("benches").members())
    keys.insert(name);
  return keys;
}

JsonValue load_baseline(const std::string& file) {
  std::ifstream in(std::string(MIRO_SOURCE_DIR) + "/" + file);
  EXPECT_TRUE(in.is_open()) << file;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return JsonValue::parse(buffer.str());
}

double row(const JsonValue& doc, const std::string& bench,
           const std::string& name) {
  const JsonValue& results = doc.at("benches").at(bench).at("results");
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results.at(i).at("name").as_string() == name)
      return results.at(i).at("value").as_number();
  }
  ADD_FAILURE() << bench << " has no row " << name;
  return 0;
}

/// Records the spans a scope emits on this thread.
class ScopedProfile {
 public:
  ScopedProfile() { obs::set_profile(&registry_); }
  ~ScopedProfile() { obs::set_profile(nullptr); }
  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;

  std::uint64_t count(const std::string& span) const {
    const auto it = registry_.by_name().find(span);
    return it == registry_.by_name().end() ? 0 : it->second.count;
  }
  bool empty() const { return registry_.by_name().empty(); }

 private:
  obs::ProfileRegistry registry_;
};

// ------------------------------------------------------------ bench table

TEST(BenchTable, DefaultTierCoversEveryBaselineBench) {
  char prog[] = "run_suite", quick[] = "--quick";
  char* argv[] = {prog, quick};
  const SuiteArgs args = parse_suite_args(2, argv);
  const std::vector<const BenchSpec*> selected =
      select_benches(args, "run_suite");
  EXPECT_EQ(selected.size(), bench_table().size());
  const std::vector<std::string> selected_names = names(selected);
  EXPECT_EQ(std::set<std::string>(selected_names.begin(),
                                  selected_names.end()),
            bench_keys(load_baseline("BENCH_PR3.json")));
}

TEST(BenchTable, FullTierMatchesTheFullBaseline) {
  char prog[] = "run_suite", full[] = "--full";
  char* argv[] = {prog, full};
  const SuiteArgs args = parse_suite_args(2, argv);
  const std::vector<std::string> selected =
      names(select_benches(args, "run_suite"));
  EXPECT_EQ(std::set<std::string>(selected.begin(), selected.end()),
            bench_keys(load_baseline("BENCH_FULL.json")));
}

TEST(BenchSelect, NamedBenchesRunInTableOrderWhateverTheTier) {
  SuiteArgs args = tiny_args({"bench_verify_fixpoint", "bench_convergence_lab",
                              "bench_table_5_1_datasets"});
  args.full = true;  // names override the tier: the lab is not full-tier
  EXPECT_EQ(names(select_benches(args, "run_suite")),
            (std::vector<std::string>{"bench_table_5_1_datasets",
                                      "bench_convergence_lab",
                                      "bench_verify_fixpoint"}));
}

TEST(BenchSelectDeathTest, UnknownBenchIsAUsageError) {
  const SuiteArgs args = tiny_args({"bench_table_5_1_datasets", "bench_nope"});
  EXPECT_EXIT(select_benches(args, "run_suite"), ::testing::ExitedWithCode(2),
              "unknown bench bench_nope");
}

TEST(BenchSelectDeathTest, SaveNeedsTheInternetScaleBench) {
  SuiteArgs args = tiny_args({"bench_table_5_1_datasets"});
  args.save = "graph.topo";
  EXPECT_EXIT(select_benches(args, "run_suite"), ::testing::ExitedWithCode(2),
              "--save needs bench_internet_scale");
}

// ---------------------------------------------------------- shared inputs

TEST(SharedInputs, PlanBenchesShareOnePlanPerProfile) {
  const SuiteArgs args =
      tiny_args({"bench_table_5_1_datasets", "bench_fig_5_2_5_3_path_diversity",
                 "bench_verify_fixpoint"});
  ScopedProfile profile;
  const SharedInputs inputs =
      build_inputs(args, select_benches(args, "run_suite"));
  // One plan, and its graph is the only one generated: the graph-only
  // Table 5.1 reads the plan's graph instead of a second copy.
  EXPECT_EQ(profile.count("eval/plan"), 1u);
  EXPECT_EQ(profile.count("topology/generate"), 1u);
  ASSERT_EQ(inputs.size(), 1u);
  const ProfileInputs& in = inputs.at("tiny");
  ASSERT_NE(in.plan, nullptr);
  EXPECT_EQ(in.graph, nullptr);
  EXPECT_EQ(in.half_scale_graph, nullptr);
  const bench::Run run(args, inputs);
  EXPECT_EQ(&run.plan("tiny"), in.plan.get());
  EXPECT_EQ(&run.graph("tiny"), &in.plan->graph());
}

TEST(SharedInputs, GraphOnlyBenchesGenerateOneGraphAndNoPlan) {
  const SuiteArgs args = tiny_args({"bench_table_5_1_datasets",
                                    "bench_fig_5_1_degree_distribution",
                                    "bench_inference_accuracy"});
  ScopedProfile profile;
  const SharedInputs inputs =
      build_inputs(args, select_benches(args, "run_suite"));
  EXPECT_EQ(profile.count("eval/plan"), 0u);
  EXPECT_EQ(profile.count("topology/generate"), 1u);
  const ProfileInputs& in = inputs.at("tiny");
  EXPECT_EQ(in.plan, nullptr);
  EXPECT_EQ(in.half_scale_graph, nullptr);
  ASSERT_NE(in.graph, nullptr);
  const topo::AsGraph expected = topo::generate(topo::profile("tiny", 1.0));
  EXPECT_EQ(in.graph->node_count(), expected.node_count());
  EXPECT_EQ(in.graph->edge_count(), expected.edge_count());
}

TEST(SharedInputs, HalfScaleBenchesGetTheGraphAtHalfTheSuiteScale) {
  const SuiteArgs args =
      tiny_args({"bench_overhead_messages", "bench_churn_convergence"});
  const SharedInputs inputs =
      build_inputs(args, select_benches(args, "run_suite"));
  const ProfileInputs& in = inputs.at("tiny");
  EXPECT_EQ(in.plan, nullptr);
  EXPECT_EQ(in.graph, nullptr);
  ASSERT_NE(in.half_scale_graph, nullptr);
  const topo::AsGraph expected = topo::generate(topo::profile("tiny", 0.5));
  EXPECT_EQ(in.half_scale_graph->node_count(), expected.node_count());
  EXPECT_EQ(in.half_scale_graph->edge_count(), expected.edge_count());
  EXPECT_LT(in.half_scale_graph->node_count(),
            topo::generate(topo::profile("tiny", 1.0)).node_count());
}

TEST(SharedInputs, SelfContainedBenchesBuildNothing) {
  const SuiteArgs args =
      tiny_args({"bench_convergence_lab", "bench_internet_scale"});
  ScopedProfile profile;
  const SharedInputs inputs =
      build_inputs(args, select_benches(args, "run_suite"));
  EXPECT_TRUE(profile.empty());
  const ProfileInputs& in = inputs.at("tiny");
  EXPECT_EQ(in.plan, nullptr);
  EXPECT_EQ(in.graph, nullptr);
  EXPECT_EQ(in.half_scale_graph, nullptr);
}

TEST(SharedInputs, AvoidTablesGetTheReachabilityPrecomputed) {
  const SuiteArgs avoid = tiny_args({"bench_table_5_2_avoid_success"});
  const SharedInputs with =
      build_inputs(avoid, select_benches(avoid, "run_suite"));
  const eval::ExperimentPlan& plan = *with.at("tiny").plan;
  const auto& tuples = plan.sample_tuples(avoid.sources);
  ASSERT_FALSE(tuples.empty());
  for (const eval::SampledTuple& tuple : tuples)
    EXPECT_NO_THROW(plan.avoid_reachable(tuple.destination, tuple.avoid));

  // A plan-only bench leaves the precompute to whoever needs it.
  const SuiteArgs plain = tiny_args({"bench_fig_5_2_5_3_path_diversity"});
  const SharedInputs without =
      build_inputs(plain, select_benches(plain, "run_suite"));
  const eval::SampledTuple& first =
      without.at("tiny").plan->sample_tuples(plain.sources).front();
  EXPECT_THROW(without.at("tiny").plan->avoid_reachable(first.destination,
                                                        first.avoid),
               Error);
}

// -------------------------------------------------------------- bench run

TEST(BenchRun, ReadingAnInputTheTableEntryDoesNotNameThrows) {
  const SuiteArgs args = tiny_args({"bench_convergence_lab"});
  const SharedInputs inputs =
      build_inputs(args, select_benches(args, "run_suite"));
  const bench::Run run(args, inputs);
  EXPECT_THROW(run.plan("tiny"), Error);
  EXPECT_THROW(run.graph("tiny"), Error);
  EXPECT_THROW(run.half_scale_graph("tiny"), Error);
  EXPECT_ANY_THROW(run.graph("gao2000"));  // a profile the suite never ran
}

TEST(BenchRun, InputAccessorsSetTheReadersMemoryAccounts) {
  const SuiteArgs args = tiny_args({"bench_fig_5_2_5_3_path_diversity"});
  const SharedInputs inputs =
      build_inputs(args, select_benches(args, "run_suite"));
  const bench::Run run(args, inputs);
  obs::MemoryRegistry memory;
  obs::set_memory(&memory);
  const eval::ExperimentPlan& plan = run.plan("tiny");
  obs::set_memory(nullptr);
  // The bench is charged for what it reads, as if it had built the plan.
  EXPECT_EQ(memory.accounts().at("topology/graph").current,
            plan.graph().memory_bytes());
  EXPECT_EQ(memory.accounts().at("eval/trees").current,
            plan.trees_memory_bytes());
  EXPECT_GT(plan.trees_memory_bytes(), 0u);
}

// ------------------------------------------------------------------ suite

TEST(Suite, EveryBenchRunsInProcessIntoOneDocument) {
  const SuiteArgs args = tiny_args();
  const SuiteResult result =
      run_suite(args, select_benches(args, "run_suite"));
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.ran, bench_table().size());
  // The document survives a dump/parse round trip (it is what --out
  // writes) and has the checked-in baselines' shape.
  const JsonValue doc = JsonValue::parse(result.document.dump());
  EXPECT_EQ(doc.at("suite").as_string(), "miro-bench");
  EXPECT_EQ(doc.at("schema").as_number(), 1.0);
  EXPECT_EQ(doc.at("config").at("profile").as_string(), "tiny");
  EXPECT_EQ(doc.at("config").at("dests").as_number(), 4.0);
  EXPECT_TRUE(doc.at("setup").contains("profile"));
  ASSERT_EQ(doc.at("benches").size(), bench_table().size());
  for (const BenchSpec& spec : bench_table()) {
    SCOPED_TRACE(spec.name);
    const JsonValue& section = doc.at("benches").at(spec.name);
    EXPECT_EQ(section.at("config").at("profiles").as_string(), "tiny");
    EXPECT_EQ(section.at("config").at("dests").as_string(), "4");
    EXPECT_GT(section.at("results").size(), 0u);
    EXPECT_TRUE(section.at("profile").is_object());
    EXPECT_TRUE(section.at("memory").at("accounts").is_object());
  }
}

TEST(Suite, SharedInputsAreBuiltOnceInTheSetupPhase) {
  const SuiteArgs args = tiny_args(
      {"bench_table_5_1_datasets", "bench_fig_5_1_degree_distribution",
       "bench_fig_5_2_5_3_path_diversity", "bench_table_5_2_avoid_success",
       "bench_table_5_3_negotiation_state", "bench_fig_5_4_5_5_incremental"});
  const SuiteResult result =
      run_suite(args, select_benches(args, "run_suite"));
  ASSERT_EQ(result.failed, 0u);
  const JsonValue& setup = result.document.at("setup").at("profile");
  EXPECT_EQ(setup.at("eval/plan").at("count").as_number(), 1.0);
  EXPECT_EQ(setup.at("topology/generate").at("count").as_number(), 1.0);
  EXPECT_EQ(setup.at("eval/precompute_avoidance").at("count").as_number(),
            1.0);
  // No bench's own profile (its clock) pays for a plan or a graph.
  for (const auto& [name, section] :
       result.document.at("benches").members()) {
    EXPECT_FALSE(section.at("profile").contains("eval/plan")) << name;
    EXPECT_FALSE(section.at("profile").contains("topology/generate")) << name;
  }
}

TEST(Suite, AThrowingBenchIsReportedAndLeftOut) {
  const BenchSpec throwing{
      "bench_throws", [](bench::Run&) { throw Error("injected bench failure"); },
      Input::None, false};
  const BenchSpec reporting{
      "bench_reports", [](bench::Run& run) { run.add("answer", 42, "count"); },
      Input::None, false};
  const SuiteResult result =
      run_suite(tiny_args(), {&throwing, &reporting});
  EXPECT_EQ(result.failed, 1u);
  EXPECT_EQ(result.ran, 1u);
  EXPECT_EQ(bench_keys(result.document),
            std::set<std::string>{"bench_reports"});
  EXPECT_EQ(row(result.document, "bench_reports", "answer"), 42.0);
}

TEST(Suite, ValueRowsAreIdenticalAtAnyThreadCount) {
  const SuiteArgs args = tiny_args(
      {"bench_fig_5_2_5_3_path_diversity", "bench_table_5_2_avoid_success",
       "bench_table_5_3_negotiation_state", "bench_verify_fixpoint"});
  const std::vector<const BenchSpec*> selected =
      select_benches(args, "run_suite");
  par::set_thread_count(1);
  const SuiteResult serial = run_suite(args, selected);
  par::set_thread_count(3);
  const SuiteResult parallel = run_suite(args, selected);
  par::set_thread_count(0);
  ASSERT_EQ(serial.failed + parallel.failed, 0u);
  obs::RegressionOptions options;
  options.values_only = true;
  const obs::RegressionReport report =
      obs::compare_bench_json(serial.document, parallel.document, options);
  std::ostringstream verdict;
  report.write_text(verdict);
  EXPECT_TRUE(report.ok()) << verdict.str();
  EXPECT_GT(report.rows.size(), 0u);
}

TEST(Suite, InternetScaleSavesTheGraphItMeasures) {
  SuiteArgs args = tiny_args({"bench_internet_scale"});
  args.save = ::testing::TempDir() + "bench_suite_test.topo";
  const SuiteResult result =
      run_suite(args, select_benches(args, "run_suite"));
  ASSERT_EQ(result.failed, 0u);
  const topo::AsGraph saved = topo::load_file(args.save);
  std::remove(args.save.c_str());
  EXPECT_EQ(static_cast<double>(saved.node_count()),
            row(result.document, "bench_internet_scale", "tiny.nodes"));
  EXPECT_EQ(static_cast<double>(saved.edge_count()),
            row(result.document, "bench_internet_scale", "tiny.edges"));
}

}  // namespace
}  // namespace miro::bench
