// run_suite: the one executable for the reproduction benches. It parses the
// flags once (bench_common.hpp) and hands the selected benches to the suite
// runner (bench_suite.cpp), which runs them in-process on shared inputs.
//
// Positional arguments select benches by name (default: every bench;
// --full: the full-tier ones). --quick shrinks every knob for CI (one
// profile, small samples) so the gate measures relative shape, not absolute
// scale. --full is the other end: the internet2006 profile at scale 1.0
// (~70k ASes, ~142k edges) with a small destination sample, restricted to
// the benches whose cost scales with graph size rather than with
// (samples x solves per sample). The merged document is written only with
// --out PATH. Exit 0 when every bench ran, 1 when one threw, 2 on a usage
// error.
#include <cstdio>
#include <exception>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"

int main(int argc, char** argv) {
  using namespace miro::bench;
  const SuiteArgs args = parse_suite_args(argc, argv);
  const std::vector<const BenchSpec*> selected = select_benches(args, argv[0]);
  if (args.threads > 0) miro::par::set_thread_count(args.threads);

  const Stopwatch suite_clock;
  SuiteResult result;
  try {
    result = run_suite(args, selected);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "run_suite: building the shared inputs failed: %s\n",
                 error.what());
    return 1;
  }

  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << result.document.dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "run_suite: cannot write %s\n", args.out.c_str());
      return 2;
    }
  }
  std::printf("\nrun_suite: %zu bench(es) ran, %zu failed, %.1f s total%s%s\n",
              result.ran, result.failed, suite_clock.ms() / 1000.0,
              args.out.empty() ? "" : "; document at ", args.out.c_str());
  return result.failed == 0 ? 0 : 1;
}
