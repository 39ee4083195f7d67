// Heap allocations of the sessioned BGP event path, counted.
//
// The binary replaces the global operator new with a counting one, active
// only while a test sets the thread-local flag, and replays a seeded churn
// trace with MRAI, flap damping and the invariant checker on. The event
// path allocates nothing per message, so what remains is per-replay setup,
// checkpoint work and amortized table growth. Sanitizer runtimes bring
// their own operator new; there the replacement and the test are skipped.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "churn/replayer.hpp"
#include "topology/generator.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MIRO_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define MIRO_SANITIZED 1
#endif
#endif

namespace {

thread_local bool counting = false;
thread_local std::size_t allocations = 0;

}  // namespace

#ifndef MIRO_SANITIZED
void* operator new(std::size_t size) {
  if (counting) ++allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace miro::churn {
namespace {

TEST(AllocationBudget, DefendedCheckedReplayStaysWithinFourPerEvent) {
#ifdef MIRO_SANITIZED
  GTEST_SKIP() << "the sanitizer runtime owns operator new";
#endif
  const topo::AsGraph graph = topo::generate(topo::profile("gao2005", 0.15));
  ChurnTraceConfig trace_config;
  trace_config.duration = 8000;
  trace_config.episodes = 24;
  trace_config.seed = 1;
  const ChurnTrace trace = generate_churn_trace(graph, 0, trace_config);
  ReplayConfig config;
  config.defense.mrai = 60;
  config.defense.damping_enabled = true;

  allocations = 0;
  counting = true;
  const ReplayResult result = replay_churn(graph, trace, config);
  counting = false;

  ASSERT_TRUE(result.ok());
  ASSERT_GT(result.checker.checkpoints, 0u);
  ASSERT_GT(result.bgp.coalesced, 0u);
  ASSERT_GT(result.bgp.updates_suppressed, 0u);
  const double per_event = static_cast<double>(allocations) /
                           static_cast<double>(result.scheduler_events);
  EXPECT_LE(per_event, 4.0) << allocations << " allocations over "
                            << result.scheduler_events << " events";
  RecordProperty("allocations", static_cast<int>(allocations));
  RecordProperty("events", static_cast<int>(result.scheduler_events));
}

}  // namespace
}  // namespace miro::churn
