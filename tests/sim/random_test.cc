#include "src/sim/random.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace magesim {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(456);
  bool all_equal = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next(), vb = b.Next(), vc = c.Next();
    all_equal = all_equal && (va == vb);
    any_diff_c = any_diff_c || (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(RngTest, NextU64InRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.NextU64(17), 17u);
  }
}

TEST(RngTest, NextU64RoughlyUniform) {
  Rng r(11);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[r.NextU64(kBuckets)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(3);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = r.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng r(5);
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    double v = r.NextExponential(250.0);
    ASSERT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kN, 250.0, 10.0);
}

TEST(ZipfTest, ProducesValuesInRange) {
  Rng r(9);
  ZipfGenerator zipf(1000, 0.99);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(r), 1000u);
  }
}

TEST(ZipfTest, IsSkewedTowardLowRanks) {
  Rng r(13);
  ZipfGenerator zipf(100000, 0.99);
  constexpr int kSamples = 100000;
  int rank0 = 0, top10 = 0;
  for (int i = 0; i < kSamples; ++i) {
    uint64_t v = zipf.Next(r);
    if (v == 0) ++rank0;
    if (v < 10) ++top10;
  }
  // With theta=0.99, N=1e5: P(rank 0) ~ 1/zeta ~ 7.8%; top-10 ~ 30%.
  EXPECT_GT(rank0, kSamples * 4 / 100);
  EXPECT_GT(top10, kSamples * 20 / 100);
  EXPECT_LT(top10, kSamples * 45 / 100);
}

TEST(ZipfTest, LowThetaApproachesUniform) {
  Rng r(17);
  ZipfGenerator zipf(100, 0.01);
  constexpr int kSamples = 100000;
  int rank0 = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next(r) == 0) ++rank0;
  }
  // Near-uniform: rank 0 close to 1%.
  EXPECT_LT(rank0, kSamples * 4 / 100);
}

// FNV-1a over the first 100k samples of a Zipf stream seeded with 1.
uint64_t ZipfStreamHash(uint64_t n, double theta) {
  Rng r(1);
  ZipfGenerator zipf(n, theta);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 100000; ++i) {
    h ^= zipf.Next(r);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(ZipfTest, SampleStreamIsPinned) {
  // Workload inputs (gups, zipf-trace, memcached, xsbench) are drawn from
  // this stream, so a speedup of Next() must leave every sample unchanged.
  // (39321, 0.99) is one gups_fleet region; (100, 0.01) is near-uniform.
  EXPECT_EQ(ZipfStreamHash(39321, 0.99), 0xe250b510596a5436ULL);
  EXPECT_EQ(ZipfStreamHash(100, 0.01), 0x1579e5de348ab78fULL);
}

TEST(ScrambleTest, StaysInRangeAndIsDeterministic) {
  for (uint64_t i = 0; i < 1000; ++i) {
    uint64_t a = ScrambleIndex(i, 777);
    uint64_t b = ScrambleIndex(i, 777);
    EXPECT_EQ(a, b);
    EXPECT_LT(a, 777u);
  }
}

TEST(ScrambleTest, SpreadsConsecutiveIndices) {
  // Consecutive inputs should not stay consecutive.
  std::map<uint64_t, int> hist;
  int adjacent = 0;
  uint64_t prev = ScrambleIndex(0, 1 << 20);
  for (uint64_t i = 1; i < 1000; ++i) {
    uint64_t cur = ScrambleIndex(i, 1 << 20);
    if (cur == prev + 1) ++adjacent;
    prev = cur;
  }
  EXPECT_LT(adjacent, 5);
}

}  // namespace
}  // namespace magesim
