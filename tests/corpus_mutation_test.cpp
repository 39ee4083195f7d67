// Seeded mutation test over the example corpora: every mutant of a policy
// configuration, a churn trace or a CAIDA topology must leave the tool that
// reads it exiting 0, 1 or 2 (clean, findings, usage or input error) —
// never a crash, a hang or a sanitizer report. Run under ASan/UBSan, it is
// the input-hygiene gate for the three file formats the tools accept.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace miro {
namespace {

constexpr std::uint64_t kSeed = 2006;
constexpr int kMutantsPerFile = 30;

/// Replaces one decimal number with a huge, negative or overflowing one.
void replace_number(std::string& text, Rng& rng) {
  static const char* const kHostile[] = {
      "-1", "-99999999999999999999", "4294967296", "99999999999999999999",
      "18446744073709551616", "1e308"};
  const char* const digits = "0123456789";
  std::vector<std::size_t> starts;
  for (std::size_t at = text.find_first_of(digits); at != std::string::npos;
       at = text.find_first_of(digits, text.find_first_not_of(digits, at)))
    starts.push_back(at);
  if (starts.empty()) return;
  const std::size_t start = starts[rng.next_below(starts.size())];
  const std::size_t end =
      std::min(text.find_first_not_of(digits, start), text.size());
  text.replace(start, end - start,
               kHostile[rng.next_below(std::size(kHostile))]);
}

/// One seeded mutation: byte flips, a truncation, a duplicated or deleted
/// slice, or a hostile number.
std::string mutate(std::string text, Rng& rng) {
  const std::size_t n = text.size();
  const std::size_t at = rng.next_below(n);
  const std::size_t len = 1 + rng.next_below(std::min<std::size_t>(64, n - at));
  switch (rng.next_below(5)) {
    case 0:
      for (std::uint64_t k = 0, flips = 1 + rng.next_below(4); k < flips; ++k)
        text[rng.next_below(n)] ^= static_cast<char>(1u << rng.next_below(8));
      break;
    case 1: text.resize(at); break;
    case 2: text.insert(at, text.substr(at, len)); break;
    case 3: text.erase(at, len); break;
    default: replace_number(text, rng); break;
  }
  return text;
}

/// Runs `tool args... path` over kMutantsPerFile mutants of each source file
/// and expects exit 0, 1 or 2 every time. A failing mutant is kept on disk.
void expect_clean_exits(const std::string& tool, const std::string& args,
                        const std::vector<std::string>& sources,
                        std::uint64_t salt) {
  // A sanitizer report exits 1 by default, which would pass for a finding;
  // give it a status of its own in the tools run here.
  for (const char* name : {"ASAN_OPTIONS", "UBSAN_OPTIONS"}) {
    const char* old = std::getenv(name);
    const std::string value = old == nullptr ? "" : std::string(old) + ":";
    ::setenv(name, (value + "exitcode=99").c_str(), 1);
  }
  Rng rng(kSeed ^ salt);
  for (const std::string& source : sources) {
    std::ostringstream buffer;
    buffer << std::ifstream(source, std::ios::binary).rdbuf();
    const std::string original = buffer.str();
    ASSERT_FALSE(original.empty()) << source;
    const std::string base = source.substr(source.find_last_of('/') + 1);
    for (int k = 0; k < kMutantsPerFile; ++k) {
      const std::string path = ::testing::TempDir() + "mutant_" +
                               std::to_string(k) + "_" + base;
      std::ofstream(path, std::ios::binary) << mutate(original, rng);
      const int status = std::system(
          ("'" + tool + "' " + args + " '" + path + "' >/dev/null 2>&1")
              .c_str());
      const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      EXPECT_TRUE(code >= 0 && code <= 2)
          << tool << " " << args << " " << path << " exited " << code;
      if (code >= 0 && code <= 2) std::remove(path.c_str());
    }
  }
}

const std::string kExamples = std::string(MIRO_SOURCE_DIR) + "/examples/";

TEST(CorpusMutation, PolicyConfigsExitCleanly) {
  expect_clean_exits(MIRO_LINT, "",
                     {kExamples + "configs/requester.conf",
                      kExamples + "configs/responder.conf",
                      kExamples + "configs/broken.conf"},
                     1);
}

TEST(CorpusMutation, CaidaTopologyExitsCleanly) {
  expect_clean_exits(MIRO_LINT, "--topology",
                     {kExamples + "topologies/tiny.topo"}, 2);
}

TEST(CorpusMutation, ChurnTracesExitCleanly) {
  expect_clean_exits(MIRO_RIBMON, "--load",
                     {kExamples + "traces/figure31_mixed.json",
                      kExamples + "traces/figure31_flap.json"},
                     3);
}

}  // namespace
}  // namespace miro
