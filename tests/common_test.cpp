#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/union_find.hpp"

namespace miro {
namespace {

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff = any_diff || a.next() != b.next();
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), Error);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform_int(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsAboutHalf) {
  Rng rng(17);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.uniform();
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(19);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = values;
  rng.shuffle(values);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, original);
}

TEST(Rng, SampleIndicesAreDistinctAndInRange) {
  Rng rng(23);
  for (std::size_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto sample = rng.sample_indices(100, k);
    EXPECT_EQ(sample.size(), k);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (std::size_t index : sample) EXPECT_LT(index, 100u);
  }
}

TEST(Rng, SampleIndicesRejectsOversizedK) {
  Rng rng(29);
  EXPECT_THROW(rng.sample_indices(5, 6), Error);
}

TEST(Rng, PowerLawIsHeavyTailedAndBounded) {
  Rng rng(31);
  std::size_t ones = 0;
  for (int i = 0; i < 5000; ++i) {
    auto v = rng.power_law(2.2, 1000);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 1000u);
    if (v == 1) ++ones;
  }
  // With alpha 2.2 most of the mass sits at the minimum.
  EXPECT_GT(ones, 2000u);
}

TEST(Summary, MeanMinMax) {
  Summary s;
  s.add(1);
  s.add(5);
  s.add(3);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Summary, PercentileNearestRank) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(90), 90.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Summary, FractionsAtThresholds) {
  Summary s;
  for (double v : {0.0, 0.0, 1.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.fraction_at_most(0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_at_least(1), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_at_least(3), 0.0);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW(s.mean(), Error);
  EXPECT_THROW(s.percentile(50), Error);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  auto cdf = empirical_cdf({3, 1, 2, 2, 5});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf.front().value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_fraction, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LT(cdf[i - 1].value, cdf[i].value);
    EXPECT_LE(cdf[i - 1].cumulative_fraction, cdf[i].cumulative_fraction);
  }
}

TEST(Stats, Log2HistogramBucketsCounts) {
  auto buckets = log2_histogram({1, 1, 2, 3, 4, 9});
  ASSERT_GE(buckets.size(), 4u);
  EXPECT_EQ(buckets[0].count, 2u);  // [1,2)
  EXPECT_EQ(buckets[1].count, 2u);  // [2,4)
  EXPECT_EQ(buckets[2].count, 1u);  // [4,8)
  EXPECT_EQ(buckets[3].count, 1u);  // [8,16)
}

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitPreservesEmptyFields) {
  auto fields = split("a|b||c", '|');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[2], "");
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  auto fields = split_whitespace("  one\ttwo   three ");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "one");
  EXPECT_EQ(fields[2], "three");
}

TEST(Strings, ParseU64HandlesEdges) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("12a"));
  EXPECT_FALSE(parse_u64("-1"));
}

TEST(Strings, ParseI64HandlesSigns) {
  EXPECT_EQ(parse_i64("-42"), -42);
  EXPECT_EQ(parse_i64("+7"), 7);
  EXPECT_EQ(parse_i64("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(parse_i64("-9223372036854775809"));
  EXPECT_FALSE(parse_i64("9223372036854775808"));
}

TEST(Strings, ParseFiniteTakesWholeFiniteTokensOnly) {
  EXPECT_EQ(parse_finite("0.25"), 0.25);
  EXPECT_EQ(parse_finite("-3"), -3.0);
  EXPECT_EQ(parse_finite("1e-3"), 1e-3);
  EXPECT_FALSE(parse_finite(""));
  EXPECT_FALSE(parse_finite("abc"));
  EXPECT_FALSE(parse_finite("0.1x"));
  EXPECT_FALSE(parse_finite(" 1"));
  EXPECT_FALSE(parse_finite("1e400"));  // overflow
  EXPECT_FALSE(parse_finite("inf"));
  EXPECT_FALSE(parse_finite("nan"));
}

TEST(Strings, JoinAndStartsWith) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_TRUE(starts_with("route-map X", "route-map"));
  EXPECT_FALSE(starts_with("rt", "route"));
}

TEST(Table, AlignsColumnsAndCountsRows) {
  TextTable table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "22"});
  EXPECT_EQ(table.row_count(), 2u);
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name   |"), std::string::npos);
  EXPECT_NE(text.find("| longer |"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Table, CsvQuotesSpecialCells) {
  TextTable table({"a"});
  table.add_row({"has,comma"});
  std::ostringstream out;
  table.print_csv(out);
  EXPECT_NE(out.str().find("\"has,comma\""), std::string::npos);
}

TEST(UnionFind, UniteAndFind) {
  UnionFind uf(6);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));  // already joined
  EXPECT_TRUE(uf.same(0, 2));
  EXPECT_FALSE(uf.same(0, 3));
  EXPECT_EQ(uf.set_size(2), 3u);
  EXPECT_EQ(uf.set_size(5), 1u);
}

TEST(Summary, EmptyThrowsOnEveryQuery) {
  Summary s;
  EXPECT_THROW(s.percentile(0), Error);
  EXPECT_THROW(s.percentile(100), Error);
  EXPECT_THROW(s.mean(), Error);
  EXPECT_THROW(s.min(), Error);
  EXPECT_THROW(s.max(), Error);
  EXPECT_THROW(s.fraction_at_most(1), Error);
  EXPECT_THROW(s.fraction_at_least(1), Error);
}

TEST(Summary, PercentileBoundsAreMinAndMax) {
  Summary s;
  for (double v : {42.0, -3.0, 17.0, 99.5}) s.add(v);
  EXPECT_DOUBLE_EQ(s.percentile(0), -3.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), s.min());
  EXPECT_DOUBLE_EQ(s.percentile(100), 99.5);
  EXPECT_DOUBLE_EQ(s.percentile(100), s.max());
  EXPECT_THROW(s.percentile(-0.001), Error);
  EXPECT_THROW(s.percentile(100.001), Error);
}

TEST(Summary, PercentileOnSingleSample) {
  Summary s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 7.0);
}

TEST(Summary, AddCountZeroAddsNothing) {
  Summary s;
  s.add_count(5.0, 0);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  s.add_count(5.0, 3);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(LogHistogram, SamplesBelowOneAreExcluded) {
  // Buckets start at 1; sub-1 samples must neither crash (log2 of a value
  // < 1 is negative) nor land in any bucket.
  const auto buckets = log2_histogram({0.25, 0.5, 0.99, 1.0, 3.0});
  ASSERT_EQ(buckets.size(), 2u);  // [1,2) and [2,4), from max_value 3
  EXPECT_EQ(buckets[0].count, 1u);
  EXPECT_EQ(buckets[1].count, 1u);
  std::size_t total = 0;
  for (const auto& b : buckets) total += b.count;
  EXPECT_EQ(total, 2u);  // the three sub-1 samples fell nowhere
}

TEST(LogHistogram, AllSamplesBelowOneYieldNoBuckets) {
  EXPECT_TRUE(log2_histogram({0.1, 0.5, 0.9}).empty());
  EXPECT_TRUE(log2_histogram({}).empty());
}

TEST(Hash, Fnv1aMatchesKnownVector) {
  // FNV-1a("") is the offset basis; "a" is a published test vector.
  EXPECT_EQ(fnv1a(""), kFnvOffset);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(Hash, CombineIsOrderSensitive) {
  EXPECT_NE(hash_combine(hash_combine(0, 1), 2),
            hash_combine(hash_combine(0, 2), 1));
}

}  // namespace
}  // namespace miro
