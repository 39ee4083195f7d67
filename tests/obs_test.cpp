// The observability substrate: the event log (ids, causal parents, per-kind
// counts, JSONL export), negotiation reconstruction, and the metrics
// registry with its two exporters.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace miro::obs {
namespace {

Event event_at(Time t, EventKind kind, std::uint64_t negotiation = 0) {
  Event event;
  event.time = t;
  event.kind = kind;
  event.actor = 1;
  event.negotiation = negotiation;
  return event;
}

TEST(EventLog, KeepsEventsInOrderWithSequentialIds) {
  EventLog log;
  EXPECT_EQ(log.record(event_at(5, EventKind::NegotiationRequested, 1)), 1u);
  EXPECT_EQ(log.record(event_at(7, EventKind::OffersReceived, 1)), 2u);
  EXPECT_EQ(log.record(event_at(9, EventKind::AcceptSent, 1)), 3u);
  const auto& events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::NegotiationRequested);
  EXPECT_EQ(events[1].kind, EventKind::OffersReceived);
  EXPECT_EQ(events[2].kind, EventKind::AcceptSent);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, i + 1);  // ids are 1-based positions
    EXPECT_EQ(events[i].parent, 0u);  // no cause was active
  }
}

TEST(EventLog, CountsPerKind) {
  EventLog log;
  log.record(event_at(1, EventKind::NegotiationRequested, 10));
  log.record(event_at(2, EventKind::NegotiationRequested, 11));
  log.record(event_at(3, EventKind::Retransmit, 10));
  log.record_root(4, 2, "start");
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.count(EventKind::NegotiationRequested), 2u);
  EXPECT_EQ(log.count(EventKind::Retransmit), 1u);
  EXPECT_EQ(log.count(EventKind::RootCause), 1u);
  EXPECT_EQ(log.count(EventKind::TunnelExpired), 0u);
}

TEST(EventLog, WriteJsonlFileWritesOneLinePerEvent) {
  const std::string path = ::testing::TempDir() + "obs_test_log.jsonl";
  EventLog log;
  Event event = event_at(42, EventKind::BusDrop, 3);
  event.peer = 9;
  event.detail = "faults";
  log.record(event);
  log.record(event_at(43, EventKind::BusSend));
  ASSERT_TRUE(write_jsonl_file(path, log));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"id\":1,\"t\":42,\"kind\":\"bus_drop\",\"actor\":1,\"peer\":9,"
            "\"prefix\":0,\"negotiation\":3,\"detail\":\"faults\"}");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"id\":2,\"t\":43,\"kind\":\"bus_send\",\"actor\":1,"
            "\"prefix\":0}");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(WriteJsonlFile, UnopenablePathReturnsFalse) {
  EventLog log;
  log.record(event_at(1, EventKind::BusSend));
  EXPECT_FALSE(write_jsonl_file("/nonexistent-dir/obs_test/log.jsonl", log));
}

TEST(WriteJsonlFile, FullDeviceReturnsFalse) {
  // /dev/full accepts the open but fails every flush with ENOSPC — the
  // canonical full-disk simulation. Skip where the device is absent.
  std::ifstream probe("/dev/full");
  if (!probe.good()) GTEST_SKIP() << "/dev/full not available";
  EventLog log;
  log.record(event_at(1, EventKind::BusSend));
  // A single buffered line still fails: the final flush is checked.
  EXPECT_FALSE(write_jsonl_file("/dev/full", log));
  for (int i = 0; i < 100000; ++i) log.record(event_at(1, EventKind::BusSend));
  EXPECT_FALSE(write_jsonl_file("/dev/full", log));
}

TEST(WriteJsonlFile, HealthyFileReturnsTrue) {
  const std::string path = ::testing::TempDir() + "obs_test_ok.jsonl";
  EventLog log;
  log.record(event_at(1, EventKind::BusSend));
  EXPECT_TRUE(write_jsonl_file(path, log));
  EXPECT_TRUE(write_jsonl_file(path, EventLog{}));  // empty log, empty file
  std::remove(path.c_str());
}

TEST(Reconstruction, OrdersPhasesAndJoinsTunnelLifetime) {
  EventLog log;
  log.record(event_at(10, EventKind::NegotiationRequested, 5));
  log.record(event_at(50, EventKind::Retransmit, 5));
  log.record(event_at(90, EventKind::Retransmit, 5));
  log.record(event_at(120, EventKind::OffersReceived, 5));
  log.record(event_at(130, EventKind::AcceptSent, 5));
  Event established = event_at(160, EventKind::NegotiationEstablished, 5);
  established.tunnel = 3;
  log.record(established);
  // Tunnel-scoped follow-up: carries only the tunnel id.
  Event expired = event_at(900, EventKind::TunnelExpired);
  expired.tunnel = 3;
  log.record(expired);
  // Noise from a different negotiation must not leak in.
  log.record(event_at(15, EventKind::NegotiationRequested, 6));

  const NegotiationTimeline timeline = reconstruct_negotiation(log, 5);
  EXPECT_EQ(timeline.negotiation_id, 5u);
  EXPECT_EQ(timeline.tunnel_id, 3u);
  EXPECT_TRUE(timeline.established);
  EXPECT_FALSE(timeline.failed);
  EXPECT_EQ(timeline.retransmits, 2u);
  ASSERT_EQ(timeline.events.size(), 7u);
  EXPECT_EQ(timeline.events.front().kind, EventKind::NegotiationRequested);
  EXPECT_EQ(timeline.events.back().kind, EventKind::TunnelExpired);
  EXPECT_EQ(timeline.summary(),
            "negotiation_requested → retransmit ×2 → offers_received → "
            "accept_sent → established → tunnel_expired");
}

TEST(Reconstruction, FailedNegotiationIsMarked) {
  EventLog log;
  log.record(event_at(10, EventKind::NegotiationRequested, 9));
  Event failed = event_at(2010, EventKind::NegotiationFailed, 9);
  failed.detail = "timeout";
  log.record(failed);
  const NegotiationTimeline timeline = reconstruct_negotiation(log, 9);
  EXPECT_TRUE(timeline.failed);
  EXPECT_FALSE(timeline.established);
  EXPECT_EQ(timeline.summary(), "negotiation_requested → failed");
}

// ------------------------------------------------------------------ metrics

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry registry;
  registry.counter("bus.sent").inc(3);
  registry.counter("bus.sent").inc();
  EXPECT_EQ(registry.counter("bus.sent").value(), 4u);

  registry.gauge("tunnels.active").set(7);
  EXPECT_DOUBLE_EQ(registry.gauge("tunnels.active").value(), 7.0);

  Histogram& h = registry.histogram("rtt");
  h.observe(0.5);   // underflow bucket
  h.observe(1.0);   // bucket [1,2)
  h.observe(3.0);   // bucket [2,4)
  h.observe(3.5);   // bucket [2,4)
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.5);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);

  EXPECT_TRUE(registry.contains("bus.sent"));
  EXPECT_FALSE(registry.contains("absent"));
  EXPECT_EQ(registry.size(), 3u);
}

TEST(Histogram, QuantileOfEmptyAndSingleSample) {
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.quantile(50), 0.0);

  Histogram one;
  one.observe(3.0);  // bucket [2,4): the single-sample midpoint is exact
  EXPECT_DOUBLE_EQ(one.p50(), 3.0);
  EXPECT_DOUBLE_EQ(one.p90(), 3.0);
  EXPECT_DOUBLE_EQ(one.p99(), 3.0);

  // A sample away from its bucket midpoint is still recovered exactly via
  // the [min, max] clamp.
  Histogram skewed;
  skewed.observe(2.1);
  EXPECT_DOUBLE_EQ(skewed.p50(), 2.1);
}

TEST(Histogram, QuantilesAreMonotonicAndBounded) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.quantile(0), 1.0);     // q <= 0 -> min
  EXPECT_DOUBLE_EQ(h.quantile(-5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(100), 100.0);  // q >= 100 -> max
  EXPECT_DOUBLE_EQ(h.quantile(250), 100.0);
  double previous = 0;
  for (double q = 1; q <= 100; q += 1) {
    const double value = h.quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    EXPECT_GE(value, h.min());
    EXPECT_LE(value, h.max());
    previous = value;
  }
  // The log2 buckets bound the error to one bucket width: p50 of 1..100
  // must land inside [32, 64), the bucket holding rank 50.
  EXPECT_GE(h.p50(), 32.0);
  EXPECT_LT(h.p50(), 64.0);
  EXPECT_GE(h.p90(), 64.0);
}

TEST(Histogram, UnderflowRanksCollapseToMin) {
  Histogram h;
  h.observe(0.25);
  h.observe(0.5);
  h.observe(0.75);
  h.observe(8.0);
  // Ranks 1..3 live in the underflow bucket (samples < 1) -> min.
  EXPECT_DOUBLE_EQ(h.quantile(25), 0.25);
  EXPECT_DOUBLE_EQ(h.quantile(75), 0.25);
  EXPECT_DOUBLE_EQ(h.quantile(99), 8.0);
}

TEST(Histogram, ExportersIncludeQuantiles) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("lat");
  h.observe(3.0);
  std::ostringstream json_out;
  registry.write_json(json_out);
  EXPECT_NE(json_out.str().find("\"p50\":3"), std::string::npos);
  EXPECT_NE(json_out.str().find("\"p99\":3"), std::string::npos);
  std::ostringstream text_out;
  registry.write_text(text_out);
  EXPECT_NE(text_out.str().find("p50="), std::string::npos);
  EXPECT_NE(text_out.str().find("p90="), std::string::npos);
}

TEST(MetricsRegistry, NameCannotRebindToAnotherKind) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), Error);
  EXPECT_THROW(registry.histogram("x"), Error);
  registry.gauge("y");
  EXPECT_THROW(registry.counter("y"), Error);
}

TEST(MetricsRegistry, JsonSnapshotIsDeterministicAndComplete) {
  MetricsRegistry registry;
  registry.counter("b.count").set(2);
  registry.counter("a.count").set(1);
  registry.gauge("g").set(1.5);
  registry.histogram("h").observe(2.0);
  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  // Sorted counters, then gauges, then histograms.
  EXPECT_EQ(json.find("\"a.count\":1"), json.find("\"counters\"") + 12);
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"g\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"h\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[0,1]"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricsRegistry, GoldenCombinedTextAndJsonExport) {
  // Golden snapshot of both exporters over one registry mixing all three
  // kinds with interleaving names. Pins down (a) the text exporter's single
  // merged table: every kind in ONE section, rows sorted by name so a
  // histogram lands between the gauges and counters it belongs with, with
  // the p50/p90/p99 detail inline; (b) the JSON schema with per-kind
  // sections and full quantile rows. Any formatting change must be a
  // deliberate golden update.
  MetricsRegistry registry;
  registry.counter("bgp.updates").set(12);
  registry.gauge("bgp.rib_bytes").set(4096);
  registry.histogram("bgp.convergence").observe(3.0);
  registry.histogram("bgp.convergence").observe(40.0);
  registry.counter("memory.rss_samples").set(2);
  registry.gauge("memory.tracked_bytes").set(6144);

  std::ostringstream text;
  registry.write_text(text);
  const std::string golden_text =
      "| metric               | kind      | value   | detail              "
      "                                       |\n"
      "|----------------------|-----------|---------|---------------------"
      "---------------------------------------|\n"
      "| bgp.convergence      | histogram | 2       | min=3.00 mean=21.50 "
      "p50=3.00 p90=40.00 p99=40.00 max=40.00 |\n"
      "| bgp.rib_bytes        | gauge     | 4096.00 |                     "
      "                                       |\n"
      "| bgp.updates          | counter   | 12      |                     "
      "                                       |\n"
      "| memory.rss_samples   | counter   | 2       |                     "
      "                                       |\n"
      "| memory.tracked_bytes | gauge     | 6144.00 |                     "
      "                                       |\n";
  EXPECT_EQ(text.str(), golden_text);

  std::ostringstream json;
  registry.write_json(json);
  const std::string golden_json =
      R"({"counters":{"bgp.updates":12,"memory.rss_samples":2},)"
      R"("gauges":{"bgp.rib_bytes":4096,"memory.tracked_bytes":6144},)"
      R"("histograms":{"bgp.convergence":{"count":2,"sum":43,"min":3,)"
      R"("max":40,"p50":3,"p90":40,"p99":40,"underflow":0,)"
      R"("buckets":[0,1,0,0,0,1]}}})";
  EXPECT_EQ(json.str(), golden_json);
}

TEST(MetricsRegistry, TextTableListsEveryMetric) {
  MetricsRegistry registry;
  registry.counter("negotiations").set(30);
  registry.gauge("tunnels").set(4);
  registry.histogram("latency").observe(16.0);
  std::ostringstream out;
  registry.write_text(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("negotiations"), std::string::npos);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("30"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
}

}  // namespace
}  // namespace miro::obs
