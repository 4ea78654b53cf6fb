#include "bench_kit/generators.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>

namespace elmo::bench {
namespace {

TEST(MakeKey, FixedWidthOrdered) {
  EXPECT_EQ(16u, MakeKey(0).size());
  EXPECT_EQ(16u, MakeKey(999999999).size());
  EXPECT_LT(MakeKey(1), MakeKey(2));
  EXPECT_LT(MakeKey(99), MakeKey(100));
  EXPECT_EQ("0000000000000042", MakeKey(42));
}

TEST(MakeKey, MatchesPrintfPrefix) {
  // Keys are the first 16 characters of "%016llu", so indexes of 17 or
  // more digits keep their leading 16.
  EXPECT_EQ("0000000000000000", MakeKey(0));
  EXPECT_EQ("1000000000000000", MakeKey(1000000000000000ULL));
  EXPECT_EQ("9999999999999999", MakeKey(9999999999999999ULL));
  EXPECT_EQ("1000000000000000", MakeKey(10000000000000000ULL));
  EXPECT_EQ("1234567890123456", MakeKey(12345678901234567890ULL));
  EXPECT_EQ("1844674407370955", MakeKey(UINT64_MAX));
  for (uint64_t index : {uint64_t{7}, uint64_t{123456789},
                         uint64_t{99999999999999999ULL},
                         uint64_t{10000000000000000000ULL}}) {
    char buf[24];
    snprintf(buf, sizeof(buf), "%016llu",
             static_cast<unsigned long long>(index));
    EXPECT_EQ(std::string(buf, 16), MakeKey(index)) << index;
  }
}

TEST(Zipfian, InRangeAndDeterministic) {
  ZipfianGenerator a(1000, 0.9, 7);
  ZipfianGenerator b(1000, 0.9, 7);
  for (int i = 0; i < 10000; i++) {
    uint64_t va = a.Next();
    EXPECT_LT(va, 1000u);
    EXPECT_EQ(va, b.Next());
  }
}

TEST(Zipfian, SkewConcentratesMass) {
  const uint64_t n = 10000;
  ZipfianGenerator gen(n, 0.99, 11);
  std::map<uint64_t, int> counts;
  const int draws = 200000;
  for (int i = 0; i < draws; i++) counts[gen.Next()]++;

  // Top 1% of distinct keys should absorb a large share of accesses.
  std::vector<int> freq;
  for (const auto& [k, c] : counts) freq.push_back(c);
  std::sort(freq.rbegin(), freq.rend());
  int64_t top = 0;
  size_t top_n = n / 100;
  for (size_t i = 0; i < std::min(top_n, freq.size()); i++) top += freq[i];
  EXPECT_GT(top, draws / 4) << "zipf(0.99) should be heavily skewed";
}

TEST(Zipfian, LowerThetaLessSkewed) {
  auto top_share = [](double theta) {
    ZipfianGenerator gen(10000, theta, 11);
    std::map<uint64_t, int> counts;
    for (int i = 0; i < 100000; i++) counts[gen.Next()]++;
    std::vector<int> freq;
    for (const auto& [k, c] : counts) freq.push_back(c);
    std::sort(freq.rbegin(), freq.rend());
    int64_t top = 0;
    for (size_t i = 0; i < 100 && i < freq.size(); i++) top += freq[i];
    return top;
  };
  EXPECT_GT(top_share(0.99), top_share(0.5));
}

TEST(Pareto, BoundsRespected) {
  ParetoValueSize gen(0.2615, 25.45, 35.0, 9, /*min=*/1, /*max=*/8192);
  for (int i = 0; i < 100000; i++) {
    uint32_t size = gen.Next();
    ASSERT_GE(size, 1u);
    ASSERT_LE(size, 8192u);
  }
}

TEST(Pareto, HeavyTailButModestMean) {
  ParetoValueSize gen(0.2615, 25.45, 35.0, 9);
  uint64_t sum = 0;
  uint32_t max_seen = 0;
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    uint32_t v = gen.Next();
    sum += v;
    max_seen = std::max(max_seen, v);
  }
  double mean = sum / static_cast<double>(n);
  EXPECT_GT(mean, 30.0);
  EXPECT_LT(mean, 200.0);
  // The tail must reach far beyond the mean.
  EXPECT_GT(max_seen, 10 * mean);
}

TEST(ValueGenerator, DeterministicAndSized) {
  ValueGenerator a(5), b(5), c(6);
  Slice va = a.Generate(100);
  EXPECT_EQ(100u, va.size());
  std::string saved = va.ToString();
  EXPECT_EQ(saved, b.Generate(100).ToString());
  EXPECT_NE(saved, c.Generate(100).ToString());
}

TEST(ValueGenerator, Incompressible) {
  ValueGenerator gen(5);
  Slice v = gen.Generate(4096);
  // Rough entropy check: all 256 byte values spread out.
  std::map<char, int> hist;
  for (size_t i = 0; i < v.size(); i++) hist[v[i]]++;
  EXPECT_GT(hist.size(), 200u);
}

}  // namespace
}  // namespace elmo::bench
