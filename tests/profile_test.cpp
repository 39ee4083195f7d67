// Wall-clock span profiler, Chrome-trace export, and the perf-regression
// gate (PR 3). The load-bearing claims:
//   - nested spans account self vs total time exactly (fake clock);
//   - disabled profiling records nothing and leaves sim behaviour
//     bit-identical (the TraceRecorder zero-cost proof, repeated for the
//     wall-clock plane);
//   - the Chrome-trace exporter emits valid JSON that round-trips through
//     the in-repo parser with both track types present;
//   - bench suite rows are always valid JSON: strings escaped, non-finite
//     values emitted as null; the suite's flag parser rejects malformed
//     values with usage status 2;
//   - the gate fails on an injected >25% slowdown and only then.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "core/protocol.hpp"
#include "core/route_store.hpp"
#include "netsim/fault_injection.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/memstats.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/regression.hpp"
#include "obs/trace.hpp"
#include "scenarios.hpp"

namespace miro::obs {
namespace {

// ---------------------------------------------------------------- JsonValue

TEST(JsonValue, ParsesAndDumpsRoundTrip) {
  const std::string text =
      R"({"suite":"miro-bench","schema":1,"ok":true,"none":null,)"
      R"("list":[1,2.5,-3e2],"nested":{"k":"v \"quoted\" \\ tab\t"}})";
  const JsonValue doc = JsonValue::parse(text);
  EXPECT_EQ(doc.at("suite").as_string(), "miro-bench");
  EXPECT_EQ(doc.at("schema").as_number(), 1.0);
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  ASSERT_EQ(doc.at("list").size(), 3u);
  EXPECT_EQ(doc.at("list").at(2).as_number(), -300.0);
  EXPECT_EQ(doc.at("nested").at("k").as_string(), "v \"quoted\" \\ tab\t");
  // dump() re-parses to the same structure (and preserves key order).
  const JsonValue again = JsonValue::parse(doc.dump());
  EXPECT_EQ(again.dump(), doc.dump());
  EXPECT_EQ(again.members().front().first, "suite");
}

TEST(JsonValue, RejectsMalformedInputAndTrailingGarbage) {
  EXPECT_THROW(JsonValue::parse(""), Error);
  EXPECT_THROW(JsonValue::parse("{"), Error);
  EXPECT_THROW(JsonValue::parse("[1,]"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\":1} extra"), Error);
  EXPECT_THROW(JsonValue::parse("nul"), Error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), Error);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), Error);
}

TEST(JsonValue, DecodesUnicodeEscapes) {
  const JsonValue doc = JsonValue::parse(R"(["Aé€"])");
  EXPECT_EQ(doc.at(std::size_t{0}).as_string(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(JsonHelpers, EscapeAndNumberTokens) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_number(3.0), "3");
  EXPECT_EQ(json_number(-0.25), "-0.25");
  // Bare nan/inf are not JSON (satellite fix): they must become null.
  EXPECT_EQ(json_number(std::nan("")), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

// ---------------------------------------------------------- ProfileRegistry

TEST(ProfileRegistry, NestedSpansAccountSelfAndTotalExactly) {
  ProfileRegistry registry;
  std::uint64_t now = 0;
  registry.set_clock([&now]() { return now; });

  // outer[0..100]: child a[10..30], child b[40..90] with grandchild
  // c[50..70]. Self times: outer 100-20-50=30, b 50-20=30, a 20, c 20.
  {
    ScopedSpan outer(&registry, "outer", "test");
    now = 10;
    {
      ScopedSpan a(&registry, "a", "test");
      now = 30;
    }
    now = 40;
    {
      ScopedSpan b(&registry, "b", "test");
      now = 50;
      {
        ScopedSpan c(&registry, "c", "test");
        now = 70;
      }
      now = 90;
    }
    now = 100;
  }

  EXPECT_EQ(registry.spans_recorded(), 4u);
  EXPECT_EQ(registry.open_spans(), 0u);
  const auto& by_name = registry.by_name();
  EXPECT_EQ(by_name.at("outer").total_ns, 100u);
  EXPECT_EQ(by_name.at("outer").self_ns, 30u);
  EXPECT_EQ(by_name.at("a").total_ns, 20u);
  EXPECT_EQ(by_name.at("a").self_ns, 20u);
  EXPECT_EQ(by_name.at("b").total_ns, 50u);
  EXPECT_EQ(by_name.at("b").self_ns, 30u);
  EXPECT_EQ(by_name.at("c").total_ns, 20u);
  EXPECT_EQ(by_name.at("c").self_ns, 20u);
  // Category aggregate: self times sum to the wall time exactly once.
  EXPECT_EQ(registry.by_category().at("test").self_ns, 100u);
  EXPECT_EQ(registry.by_category().at("test").count, 4u);
  // Raw log is in completion order (children first) with depths.
  const auto& spans = registry.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_STREQ(spans[0].name, "a");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_STREQ(spans[1].name, "c");
  EXPECT_EQ(spans[1].depth, 2u);
  EXPECT_STREQ(spans[3].name, "outer");
  EXPECT_EQ(spans[3].depth, 0u);
}

TEST(ProfileRegistry, RepeatedSpansAggregateCountMeanAndMax) {
  ProfileRegistry registry;
  std::uint64_t now = 0;
  registry.set_clock([&now]() { return now; });
  for (std::uint64_t cost : {5u, 10u, 35u}) {
    ScopedSpan span(&registry, "phase", "test");
    now += cost;
  }
  const auto& stats = registry.by_name().at("phase");
  EXPECT_EQ(stats.count, 3u);
  EXPECT_EQ(stats.total_ns, 50u);
  EXPECT_EQ(stats.max_ns, 35u);
}

TEST(ProfileRegistry, SpanLogIsBoundedButAggregationIsNot) {
  ProfileRegistry registry(/*max_spans=*/2);
  std::uint64_t now = 0;
  registry.set_clock([&now]() { return now; });
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span(&registry, "s", "");
    now += 1;
  }
  EXPECT_EQ(registry.spans().size(), 2u);
  EXPECT_EQ(registry.spans_recorded(), 5u);
  EXPECT_EQ(registry.spans_dropped(), 3u);
  EXPECT_EQ(registry.by_name().at("s").count, 5u);

  registry.reset();
  EXPECT_TRUE(registry.spans().empty());
  EXPECT_EQ(registry.spans_recorded(), 0u);
  EXPECT_TRUE(registry.by_name().empty());
}

TEST(ProfileRegistry, ExportsMetricsAndWritesTextTable) {
  ProfileRegistry registry;
  std::uint64_t now = 0;
  registry.set_clock([&now]() { return now; });
  {
    ScopedSpan span(&registry, "bgp/solve_tree", "bgp");
    now += 2'000'000;  // 2 ms
  }
  MetricsRegistry metrics;
  registry.export_metrics(metrics);
  EXPECT_EQ(metrics.counter("profile.bgp/solve_tree.count").value(), 1u);
  EXPECT_DOUBLE_EQ(metrics.gauge("profile.bgp/solve_tree.total_ms").value(),
                   2.0);
  std::ostringstream text;
  registry.write_text(text);
  EXPECT_NE(text.str().find("bgp/solve_tree"), std::string::npos);
  EXPECT_NE(text.str().find("[bgp]"), std::string::npos);
}

// ------------------------------------------------- zero cost when disabled

/// The instrumented negotiation sim from the chaos tests, parameterized on
/// whether the process-wide profiler is attached.
core::MiroAgent::Stats run_negotiations(ProfileRegistry* registry,
                                        obs::TraceRecorder* trace,
                                        std::size_t* established) {
  set_profile(registry);
  test::Figure31Topology fig;
  core::RouteStore store(fig.graph);
  sim::Scheduler scheduler;
  core::Bus bus(scheduler);
  sim::FaultPlane plane(7);
  plane.set_default_profile({0.10, 0.10, 25});
  bus.set_fault_plane(&plane);
  bus.set_trace(trace);
  core::SoftStateConfig ss;
  ss.rng_seed = 7;
  core::MiroAgent a(fig.a, store, bus, {}, ss);
  core::MiroAgent b(fig.b, store, bus, {}, ss);
  a.set_trace(trace);
  b.set_trace(trace);
  for (std::size_t i = 0; i < 20; ++i) {
    scheduler.at(i * 250, [&]() {
      a.request(fig.b, fig.a, fig.f, fig.e, std::nullopt,
                [established](const core::NegotiationOutcome& o) {
                  if (o.established && established != nullptr)
                    ++*established;
                });
    });
  }
  scheduler.run_until(20 * 250 + 5000);
  set_profile(nullptr);
  return a.stats();
}

TEST(ProfileZeroCost, DisabledProfilingRecordsNothing) {
  // Mirror of ChaosSweep.DisabledTracingRecordsAndAllocatesNothing for the
  // wall-clock plane: a registry exists but is never attached, and the
  // instrumented run must never reach it.
  ProfileRegistry idle;
  std::size_t established = 0;
  run_negotiations(/*registry=*/nullptr, /*trace=*/nullptr, &established);
  EXPECT_GT(established, 0u);
  EXPECT_EQ(idle.spans_recorded(), 0u);
  EXPECT_EQ(idle.spans_dropped(), 0u);
  EXPECT_TRUE(idle.by_name().empty());
  EXPECT_EQ(profile(), nullptr);
}

TEST(ProfileZeroCost, ProfiledRunIsBitIdenticalToUnprofiledRun) {
  // The profiler only reads the wall clock; the sim-time event stream and
  // every protocol counter must match event-for-event with it on or off.
  obs::TraceRecorder plain_trace(1 << 16);
  std::size_t plain_established = 0;
  const core::MiroAgent::Stats plain =
      run_negotiations(nullptr, &plain_trace, &plain_established);

  ProfileRegistry registry;
  obs::TraceRecorder profiled_trace(1 << 16);
  std::size_t profiled_established = 0;
  const core::MiroAgent::Stats profiled =
      run_negotiations(&registry, &profiled_trace, &profiled_established);

  EXPECT_GT(registry.spans_recorded(), 0u);  // the profiler did observe
  EXPECT_EQ(profiled_established, plain_established);
  EXPECT_EQ(profiled.retransmissions, plain.retransmissions);
  EXPECT_EQ(profiled.negotiations_abandoned, plain.negotiations_abandoned);
  EXPECT_EQ(profiled.duplicates_suppressed, plain.duplicates_suppressed);
  const std::vector<TraceEvent> a = plain_trace.snapshot();
  const std::vector<TraceEvent> b = profiled_trace.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(to_json(a[i]), to_json(b[i])) << "event " << i;
}

// ------------------------------------------------------------ Chrome trace

TEST(ChromeTrace, GoldenExportRoundTripsThroughParser) {
  ProfileRegistry registry;
  std::uint64_t now = 0;
  registry.set_clock([&now]() { return now; });
  {
    ScopedSpan outer(&registry, "netsim/run_until", "netsim");
    now = 1000;
    {
      ScopedSpan inner(&registry, "protocol/request", "core");
      now = 3000;
    }
    now = 5000;
  }
  std::vector<TraceEvent> sim_events;
  TraceEvent sent;
  sent.time = 3;
  sent.type = EventType::BusSend;
  sent.actor = 1;
  sent.peer = 2;
  sent.negotiation = 9;
  sim_events.push_back(sent);
  TraceEvent dropped;
  dropped.time = 5;
  dropped.type = EventType::BusDrop;
  dropped.actor = 2;
  dropped.detail = "faults";
  sim_events.push_back(dropped);

  std::ostringstream out;
  write_chrome_trace(out, &registry, sim_events, {});
  const JsonValue doc = JsonValue::parse(out.str());  // valid JSON, period
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const JsonValue& events = doc.at("traceEvents");

  std::size_t begins = 0, ends = 0, instants = 0, meta = 0;
  std::optional<double> outer_begin_ts, outer_end_ts, inner_begin_ts;
  bool saw_sim_track = false, saw_wall_track = false;
  // Per wall track (tid = nesting depth): (ts, is_begin), to prove B/E
  // alternate once the importer sorts each track by timestamp.
  std::map<double, std::vector<std::pair<double, bool>>> tracks;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const JsonValue& event = events.at(i);
    const std::string& phase = event.at("ph").as_string();
    if (phase == "B" || phase == "E") {
      tracks[event.at("tid").as_number()].emplace_back(
          event.at("ts").as_number(), phase == "B");
    }
    if (phase == "B") {
      ++begins;
      if (event.at("name").as_string() == "netsim/run_until")
        outer_begin_ts = event.at("ts").as_number();
      if (event.at("name").as_string() == "protocol/request") {
        inner_begin_ts = event.at("ts").as_number();
        EXPECT_EQ(event.at("tid").as_number(), 1.0);  // depth-1 track
        EXPECT_EQ(event.at("cat").as_string(), "core");
      }
    } else if (phase == "E") {
      ++ends;
      if (event.at("name").as_string() == "netsim/run_until")
        outer_end_ts = event.at("ts").as_number();
    } else if (phase == "i") {
      ++instants;
      EXPECT_EQ(event.at("s").as_string(), "t");
      EXPECT_EQ(event.at("pid").as_number(), 2.0);
      if (event.at("name").as_string() == "bus_send") {
        // 3 sim ticks at the default 1000 us/tick.
        EXPECT_EQ(event.at("ts").as_number(), 3000.0);
        EXPECT_EQ(event.at("args").at("negotiation").as_number(), 9.0);
        EXPECT_EQ(event.at("args").at("peer").as_number(), 2.0);
      }
      if (event.at("name").as_string() == "bus_drop") {
        EXPECT_EQ(event.at("args").at("detail").as_string(), "faults");
      }
    } else if (phase == "M") {
      ++meta;
      const std::string& name = event.at("args").at("name").as_string();
      saw_wall_track = saw_wall_track || name.find("wall") != std::string::npos;
      saw_sim_track = saw_sim_track || name.find("sim") != std::string::npos;
    }
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);  // every B has its E
  // Sorted by ts, each depth track strictly alternates B,E — the property
  // that makes the per-depth layout render correctly.
  for (auto& [tid, marks] : tracks) {
    std::stable_sort(marks.begin(), marks.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    for (std::size_t i = 0; i < marks.size(); ++i)
      EXPECT_EQ(marks[i].second, i % 2 == 0)
          << "track " << tid << " event " << i;
  }
  EXPECT_EQ(instants, 2u);
  EXPECT_GE(meta, 2u);
  EXPECT_TRUE(saw_wall_track);
  EXPECT_TRUE(saw_sim_track);
  // Wall timestamps are microseconds: outer [0..5000ns] = [0..5us].
  ASSERT_TRUE(outer_begin_ts && outer_end_ts && inner_begin_ts);
  EXPECT_EQ(*outer_begin_ts, 0.0);
  EXPECT_EQ(*outer_end_ts, 5.0);
  EXPECT_EQ(*inner_begin_ts, 1.0);
}

TEST(ChromeTrace, EmptySourcesStillProduceAValidFile) {
  std::ostringstream out;
  write_chrome_trace(out, nullptr, {}, {});
  const JsonValue doc = JsonValue::parse(out.str());
  EXPECT_TRUE(doc.at("traceEvents").is_array());
}

// ------------------------------------------------------ bench suite plumbing

TEST(BenchSuite, RowsWithHostileNamesAndNonFiniteValuesStayValidJson) {
  const bench::SuiteArgs args;
  const bench::SharedInputs inputs;
  bench::Run run(args, inputs);
  run.add("ok_row", 1.5, "ms");
  run.add("nan_row", std::nan(""), "fraction");
  run.add("gao\"2000\"\\agarwal", std::numeric_limits<double>::infinity(),
          "x\ny");
  // The rows parse back even with hostile strings and non-finite values
  // (bare nan/inf are not JSON; they must become null).
  const JsonValue doc = JsonValue::parse(run.results().dump());
  ASSERT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.at(std::size_t{0}).at("value").as_number(), 1.5);
  EXPECT_EQ(doc.at(1).at("value").kind(), JsonValue::Kind::Null);
  EXPECT_EQ(doc.at(2).at("value").kind(), JsonValue::Kind::Null);
  EXPECT_EQ(doc.at(2).at("name").as_string(), "gao\"2000\"\\agarwal");
  EXPECT_EQ(doc.at(2).at("unit").as_string(), "x\ny");
}

TEST(BenchSuite, RegistrySectionsCarrySpanTotalsAndAccounts) {
  ProfileRegistry registry;
  std::uint64_t now = 0;
  registry.set_clock([&now]() { return now; });
  {
    ScopedSpan span(&registry, "eval/plan", "eval");
    now += 1'500'000;
  }
  MemoryRegistry memory;
  memory.account("topology/graph").set_current(4096);
  JsonValue object = JsonValue::make_object();
  bench::add_registry_sections(object, registry, memory);
  const JsonValue doc = JsonValue::parse(object.dump());
  EXPECT_DOUBLE_EQ(
      doc.at("profile").at("eval/plan").at("total_ms").as_number(), 1.5);
  EXPECT_EQ(doc.at("profile").at("eval/plan").at("count").as_number(), 1.0);
  EXPECT_EQ(doc.at("memory")
                .at("accounts")
                .at("topology/graph")
                .at("bytes")
                .as_number(),
            4096.0);
  // RSS is reported only once sampled.
  EXPECT_FALSE(doc.at("memory").contains("rss_bytes"));
}

TEST(BenchSuite, ParsesPresetsOverridesAndBenchNames) {
  char prog[] = "run_suite", quick[] = "--quick", dests[] = "--dests",
       twelve[] = "12", name[] = "bench_x", seed[] = "--seed", seven[] = "7";
  char* argv[] = {prog, quick, dests, twelve, name, seed, seven};
  const bench::SuiteArgs args = bench::parse_suite_args(7, argv);
  EXPECT_EQ(args.profiles(), std::vector<std::string>{"gao2005"});
  EXPECT_EQ(args.scale, 0.15);
  EXPECT_EQ(args.dests, 12u);  // a later flag overrides the preset
  EXPECT_EQ(args.sources, 8u);
  EXPECT_EQ(args.seed, 7u);
  EXPECT_EQ(args.benches, std::vector<std::string>{"bench_x"});
  EXPECT_TRUE(args.out.empty());  // no --out, no document written

  // Bare defaults: the configuration EXPERIMENTS.md's numbers come from.
  char* bare[] = {prog};
  const bench::SuiteArgs defaults = bench::parse_suite_args(1, bare);
  EXPECT_EQ(defaults.profiles().size(), 4u);
  EXPECT_EQ(defaults.scale, 0.5);
  EXPECT_EQ(defaults.dests, 80u);
  EXPECT_EQ(defaults.sources, 40u);
  EXPECT_EQ(defaults.seed, 42u);
}

TEST(BenchSuiteArgsDeathTest, TrailingFlagWithoutValueIsAUsageError) {
  char prog[] = "run_suite", quick[] = "--quick", out[] = "--out";
  char* argv[] = {prog, quick, out};
  EXPECT_EXIT(bench::parse_suite_args(3, argv), ::testing::ExitedWithCode(2),
              "missing value for --out");
}

TEST(BenchSuiteArgsDeathTest, MalformedNumbersAreUsageErrors) {
  // `--dests abc` used to run with 0 destinations (an all-0.0% Table 5.2,
  // exit 0) and `--seed -3` wrapped around to a huge unsigned seed.
  const std::pair<std::string, std::string> cases[] = {
      {"--dests", "abc"},   {"--dests", "12x"},  {"--dests", ""},
      {"--sources", "-1"},  {"--seed", "-3"},    {"--seed", "+3"},
      {"--seed", "99999999999999999999999"},     {"--scale", "0"},
      {"--scale", "-0.5"},  {"--scale", "0.5x"}, {"--scale", "nan"},
      {"--threads", "0"},   {"--threads", "2 "}};
  for (const auto& [flag, value] : cases) {
    std::string flag_text = flag;
    std::string value_text = value;
    char prog[] = "run_suite";
    char* argv[] = {prog, flag_text.data(), value_text.data()};
    EXPECT_EXIT(bench::parse_suite_args(3, argv),
                ::testing::ExitedWithCode(2), flag + " expects")
        << flag << " '" << value << "'";
  }
}

TEST(BenchSuiteArgsDeathTest, UnknownProfileOrFlagIsAUsageError) {
  char prog[] = "run_suite", profile[] = "--profile", bogus[] = "bogus",
       skip[] = "--skip";
  char* bad_profile[] = {prog, profile, bogus};
  EXPECT_EXIT(bench::parse_suite_args(3, bad_profile),
              ::testing::ExitedWithCode(2), "bogus");
  char* bad_flag[] = {prog, skip, bogus};
  EXPECT_EXIT(bench::parse_suite_args(3, bad_flag),
              ::testing::ExitedWithCode(2), "unknown flag --skip");
}

// --------------------------------------------------------- regression gate

JsonValue suite_doc(double elapsed_ms, double rate_per_s, double fraction) {
  std::ostringstream text;
  text << R"({"suite":"miro-bench","schema":1,"config":{},"benches":{)"
       << R"("bench_x":{"config":{},"results":[)"
       << R"({"name":"gao2000.elapsed","value":)" << elapsed_ms
       << R"(,"unit":"ms"},)"
       << R"({"name":"gao2000.throughput","value":)" << rate_per_s
       << R"(,"unit":"msgs/s"},)"
       << R"({"name":"gao2000.fraction_zero","value":)" << fraction
       << R"(,"unit":"fraction"}]}}})";
  return JsonValue::parse(text.str());
}

TEST(RegressionGate, ClassifiesUnitsByDirection) {
  EXPECT_TRUE(is_perf_unit("ms"));
  EXPECT_TRUE(is_perf_unit("ns"));
  EXPECT_TRUE(is_perf_unit("s"));
  EXPECT_TRUE(is_perf_unit("msgs/s"));
  EXPECT_FALSE(is_perf_unit("fraction"));
  EXPECT_FALSE(is_perf_unit("paths"));
  EXPECT_FALSE(is_perf_unit("bool"));
  EXPECT_FALSE(is_perf_unit(""));
}

TEST(RegressionGate, PassesOnIdenticalAndNoiseLevelChange) {
  const JsonValue baseline = suite_doc(100, 50, 0.3);
  EXPECT_TRUE(compare_bench_json(baseline, baseline).ok());
  // +20% is inside the default 25% threshold.
  EXPECT_TRUE(compare_bench_json(baseline, suite_doc(120, 42, 0.3)).ok());
}

TEST(RegressionGate, FailsOnInjectedSlowdownBeyondThreshold) {
  // The CI acceptance demo: a >25% slowdown on a time row fails the gate.
  const JsonValue baseline = suite_doc(100, 50, 0.3);
  const RegressionReport report =
      compare_bench_json(baseline, suite_doc(130, 50, 0.3));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions(), 1u);
  const RegressionRow* bad = nullptr;
  for (const RegressionRow& row : report.rows) {
    if (row.regressed) bad = &row;
  }
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->name, "gao2000.elapsed");
  EXPECT_NEAR(bad->change, 0.30, 1e-9);
  std::ostringstream text;
  report.write_text(text);
  EXPECT_NE(text.str().find("perf gate FAIL"), std::string::npos);
}

TEST(RegressionGate, RateUnitsRegressDownwardOnly) {
  const JsonValue baseline = suite_doc(100, 50, 0.3);
  // Throughput halved: regression. Throughput doubled: improvement.
  EXPECT_FALSE(compare_bench_json(baseline, suite_doc(100, 25, 0.3)).ok());
  EXPECT_TRUE(compare_bench_json(baseline, suite_doc(100, 100, 0.3)).ok());
  // A *faster* time row is also fine, however large the change.
  EXPECT_TRUE(compare_bench_json(baseline, suite_doc(10, 50, 0.3)).ok());
}

TEST(RegressionGate, NonPerfRowsAreInformationalUnlessChecked) {
  const JsonValue baseline = suite_doc(100, 50, 0.3);
  const JsonValue drifted = suite_doc(100, 50, 0.9);
  EXPECT_TRUE(compare_bench_json(baseline, drifted).ok());
  RegressionOptions strict;
  strict.check_values = true;
  EXPECT_FALSE(compare_bench_json(baseline, drifted, strict).ok());
}

TEST(RegressionGate, MinMagnitudeIgnoresNoiseOnTinyRows) {
  // 0.4ms -> 0.9ms is +125% but below the 1ms magnitude floor.
  const JsonValue baseline = suite_doc(0.4, 50, 0.3);
  EXPECT_TRUE(compare_bench_json(baseline, suite_doc(0.9, 50, 0.3)).ok());
  RegressionOptions fussy;
  fussy.min_magnitude = 0.1;
  EXPECT_FALSE(
      compare_bench_json(baseline, suite_doc(0.9, 50, 0.3), fussy).ok());
}

TEST(RegressionGate, MissingRowsAndBenchesFailTheGate) {
  const JsonValue baseline = suite_doc(100, 50, 0.3);
  const JsonValue no_rows = JsonValue::parse(
      R"({"suite":"miro-bench","schema":1,"config":{},)"
      R"("benches":{"bench_x":{"config":{},"results":[)"
      R"({"name":"gao2000.elapsed","value":100,"unit":"ms"}]}}})");
  const RegressionReport rows_report = compare_bench_json(baseline, no_rows);
  EXPECT_FALSE(rows_report.ok());
  EXPECT_EQ(rows_report.missing_rows.size(), 2u);

  const JsonValue no_bench = JsonValue::parse(
      R"({"suite":"miro-bench","schema":1,"config":{},"benches":{}})");
  const RegressionReport bench_report =
      compare_bench_json(baseline, no_bench);
  EXPECT_FALSE(bench_report.ok());
  ASSERT_EQ(bench_report.missing_benches.size(), 1u);
  EXPECT_EQ(bench_report.missing_benches.front(), "bench_x");
}

TEST(RegressionGate, NullValuesFromNonFiniteResultsCompareAsEqual) {
  // A nan row serializes as null on both sides; the gate must treat the
  // pair as a non-gated match, not a crash or a regression.
  const JsonValue baseline = JsonValue::parse(
      R"({"suite":"miro-bench","schema":1,"config":{},)"
      R"("benches":{"b":{"config":{},"results":[)"
      R"({"name":"r","value":null,"unit":"ms"}]}}})");
  const RegressionReport report = compare_bench_json(baseline, baseline);
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_FALSE(report.rows.front().gated);
}

}  // namespace
}  // namespace miro::obs
