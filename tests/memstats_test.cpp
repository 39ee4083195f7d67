// Memory observability layer: counters, registry export, the RouteStore
// footprint walk, the null-registry behaviour-neutrality contract, and the
// byte-row regression gate.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>

#include "common/memtrack.hpp"
#include "core/route_store.hpp"
#include "eval/avoid_as.hpp"
#include "obs/memstats.hpp"
#include "obs/metrics.hpp"
#include "obs/regression.hpp"
#include "topology/generator.hpp"

namespace {

using namespace miro;
using obs::MemoryRegistry;

TEST(MemCounters, SetCurrentKeepsTheHighWaterMark) {
  MemCounters c;
  c.set_current(150);
  EXPECT_EQ(c.current, 150u);
  EXPECT_EQ(c.peak, 150u);
  c.set_current(40);
  EXPECT_EQ(c.current, 40u);
  EXPECT_EQ(c.peak, 150u);
  c.set_current(400);
  EXPECT_EQ(c.peak, 400u);
}

TEST(MemoryRegistryTest, TextTableAndMetricsExport) {
  MemoryRegistry registry;
  registry.account("topology/graph").set_current(4096);
  registry.account("bgp/rib").set_current(2048);
  EXPECT_EQ(registry.tracked_bytes(), 6144u);

  std::ostringstream text;
  registry.write_text(text);
  EXPECT_NE(text.str().find("topology/graph"), std::string::npos);
  EXPECT_NE(text.str().find("bgp/rib"), std::string::npos);
  EXPECT_NE(text.str().find("[tracked total]"), std::string::npos);
  EXPECT_NE(text.str().find("6144"), std::string::npos);

  obs::MetricsRegistry metrics;
  registry.export_metrics(metrics);
  EXPECT_EQ(metrics.gauge("memory.topology/graph.bytes").value(), 4096);
  EXPECT_EQ(metrics.gauge("memory.bgp/rib.bytes").value(), 2048);
  EXPECT_EQ(metrics.gauge("memory.tracked_bytes").value(), 6144);

  registry.reset();
  EXPECT_EQ(registry.tracked_bytes(), 0u);
  EXPECT_TRUE(registry.accounts().empty());
}

TEST(MemoryRegistryTest, RssSamplerReadsTheProcess) {
#ifdef __linux__
  MemoryRegistry registry;
  registry.sample_rss();
  EXPECT_EQ(registry.rss_samples(), 1u);
  EXPECT_GT(registry.rss_bytes(), 0u);
  EXPECT_GE(registry.rss_peak_bytes(), registry.rss_bytes());
#else
  GTEST_SKIP() << "RSS sources are platform-specific";
#endif
}

// RouteStore::memory_bytes walks the tree map and each tree. A mirror map
// with the same insertions supplies the map's share, so each new tree must
// add exactly its object and its entry array on top of it, and a cache hit
// must add nothing.
TEST(RouteStore, MemoryBytesCountsEachTreeOnce) {
  const topo::AsGraph graph = topo::generate(topo::profile("tiny"));
  core::RouteStore store(graph);
  std::unordered_map<topo::NodeId, std::unique_ptr<bgp::RoutingTree>> mirror;
  EXPECT_EQ(store.memory_bytes(), hash_map_bytes(mirror));
  for (const topo::NodeId destination : {0u, 40u, 200u, 7u}) {
    const std::uint64_t before = store.memory_bytes();
    const std::uint64_t map_before = hash_map_bytes(mirror);
    const bgp::RoutingTree& tree = store.tree(destination);
    mirror.emplace(destination, nullptr);
    EXPECT_GT(tree.memory_bytes(), 0u);
    EXPECT_EQ(store.memory_bytes() - before,
              hash_map_bytes(mirror) - map_before + sizeof(bgp::RoutingTree) +
                  tree.memory_bytes());
    const std::uint64_t after = store.memory_bytes();
    store.tree(destination);  // a repeat is a cache hit
    EXPECT_EQ(store.memory_bytes(), after);
  }
  EXPECT_EQ(store.tree_count(), 4u);
}

// The acceptance contract: attaching a MemoryRegistry must not perturb any
// simulation output. Run the same avoid-as evaluation accounted and
// unaccounted and require bit-identical results.
TEST(MemoryRegistryTest, NullRegistryIsBehaviourNeutral) {
  eval::EvalConfig config;
  config.profile = "gao2005";
  config.scale = 0.12;
  config.destination_samples = 6;
  config.sources_per_destination = 4;

  const eval::ExperimentPlan bare_plan(config);
  const auto bare = eval::run_avoid_as(bare_plan);

  MemoryRegistry registry;
  obs::set_memory(&registry);
  const eval::ExperimentPlan tracked_plan(config);
  const auto tracked = eval::run_avoid_as(tracked_plan);
  obs::set_memory(nullptr);

  // Accounts were actually fed while attached...
  EXPECT_GT(registry.account("topology/graph").current, 0u);
  EXPECT_GT(registry.account("eval/trees").current, 0u);
  // ...and every output is bit-identical to the unaccounted run.
  EXPECT_EQ(bare.single_rate, tracked.single_rate);
  EXPECT_EQ(bare.source_rate, tracked.source_rate);
  for (int p = 0; p < 3; ++p)
    EXPECT_EQ(bare.multi_rate[p], tracked.multi_rate[p]);

  // The walk itself is deterministic: identical plans report identical
  // footprints (this is what licenses byte rows in the bench gate).
  EXPECT_EQ(bare_plan.graph().memory_bytes(),
            tracked_plan.graph().memory_bytes());
  EXPECT_EQ(bare_plan.trees_memory_bytes(), tracked_plan.trees_memory_bytes());
}

// ---------------------------------------------------------------------------
// Byte rows in the regression gate.

JsonValue memory_suite_doc(double graph_bytes, double bytes_per_route,
                           double elapsed_ms = 100) {
  std::ostringstream text;
  text << R"({"suite":"miro-bench","schema":1,"config":{},"benches":{)"
       << R"("bench_x":{"config":{},"results":[)"
       << R"({"name":"gao2005.graph_bytes","value":)" << graph_bytes
       << R"(,"unit":"bytes"},)"
       << R"({"name":"gao2005.bytes_per_route","value":)" << bytes_per_route
       << R"(,"unit":"bytes/route"},)"
       << R"({"name":"gao2005.elapsed","value":)" << elapsed_ms
       << R"(,"unit":"ms"}]}}})";
  return JsonValue::parse(text.str());
}

TEST(MemoryRegressionGate, UnitClassification) {
  EXPECT_TRUE(obs::is_memory_unit("bytes"));
  EXPECT_TRUE(obs::is_memory_unit("bytes/route"));
  EXPECT_TRUE(obs::is_memory_unit("bytes/edge"));
  EXPECT_FALSE(obs::is_memory_unit("byte"));
  EXPECT_FALSE(obs::is_memory_unit("kilobytes"));
  EXPECT_EQ(obs::classify_unit("bytes"), obs::RowKind::Memory);
  EXPECT_EQ(obs::classify_unit("bytes/route"), obs::RowKind::Memory);
  // Perf wins over memory: a throughput measured in bytes is still a rate.
  EXPECT_EQ(obs::classify_unit("bytes/s"), obs::RowKind::Rate);
  EXPECT_EQ(obs::classify_unit("ms"), obs::RowKind::Time);
  EXPECT_EQ(obs::classify_unit("fraction"), obs::RowKind::Value);
}

TEST(MemoryRegressionGate, FailsOnInjectedByteRegressionBeyondThreshold) {
  const JsonValue baseline = memory_suite_doc(100000, 200);
  // +20% growth is inside the default 25% memory threshold.
  EXPECT_TRUE(obs::compare_bench_json(baseline, memory_suite_doc(120000, 200))
                  .ok());
  // +30% on graph_bytes must fail, and be attributed to the memory kind.
  const obs::RegressionReport report =
      obs::compare_bench_json(baseline, memory_suite_doc(130000, 200));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.regressions(), 1u);
  EXPECT_EQ(report.regressions(obs::RowKind::Memory), 1u);
  EXPECT_EQ(report.regressions(obs::RowKind::Time), 0u);
  std::ostringstream text;
  report.write_text(text);
  EXPECT_NE(text.str().find("perf gate FAIL"), std::string::npos);
  EXPECT_NE(text.str().find("memory 1"), std::string::npos);
  // Shrinking is an improvement, never a failure.
  EXPECT_TRUE(obs::compare_bench_json(baseline, memory_suite_doc(50000, 120))
                  .ok());
  // Derived per-route rows are gated too.
  EXPECT_FALSE(obs::compare_bench_json(baseline, memory_suite_doc(100000, 300))
                   .ok());
}

TEST(MemoryRegressionGate, AbsoluteGrowthCeilingAndMinMagnitude) {
  // There is no absolute ceiling: +10% on a huge account (10 KB) passes.
  const JsonValue baseline = memory_suite_doc(100000, 200);
  EXPECT_TRUE(obs::compare_bench_json(baseline, memory_suite_doc(110000, 200))
                  .ok());
  // Tiny accounts are below the 64-byte floor: relative noise ignored.
  const JsonValue small = memory_suite_doc(48, 8);
  EXPECT_TRUE(obs::compare_bench_json(small, memory_suite_doc(60, 10)).ok());
}

TEST(MemoryRegressionGate, ValuesOnlyHoldsByteRowsToExactEquality) {
  // Determinism mode: byte rows come from capacity walks and must be
  // bit-identical across thread counts — any drift fails.
  const JsonValue baseline = memory_suite_doc(100000, 200);
  obs::RegressionOptions determinism;
  determinism.values_only = true;
  EXPECT_TRUE(
      obs::compare_bench_json(baseline, memory_suite_doc(100000, 200, 999),
                              determinism)
          .ok())
      << "perf rows are informational under values_only";
  EXPECT_FALSE(
      obs::compare_bench_json(baseline, memory_suite_doc(100001, 200),
                              determinism)
          .ok());
}

TEST(MemoryRegressionGate, MissingByteRowIsAFailure) {
  const JsonValue baseline = memory_suite_doc(100000, 200);
  const JsonValue no_memory_rows = JsonValue::parse(
      R"({"suite":"miro-bench","schema":1,"config":{},)"
      R"("benches":{"bench_x":{"config":{},"results":[)"
      R"({"name":"gao2005.elapsed","value":100,"unit":"ms"}]}}})");
  const obs::RegressionReport report =
      obs::compare_bench_json(baseline, no_memory_rows);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.missing_rows.size(), 2u);
}

}  // namespace
