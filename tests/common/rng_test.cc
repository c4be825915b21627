#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"

namespace pds2::common {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedValuesInRange) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextU64(17), 17u);
  }
}

TEST(RngTest, BoundOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.NextU64(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DoubleRangeRespected) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    double d = rng.NextDouble(2.0, 3.0);
    EXPECT_GE(d, 2.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, GaussianMomentsApproximatelyStandard) {
  Rng rng(11);
  const int n = 20000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, GaussianWithParams) {
  Rng rng(12);
  const int n = 20000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.NextGaussian(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, NextBoolFrequency) {
  Rng rng(13);
  int heads = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBool(0.3)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.03);
}

TEST(RngTest, NextBytesSizeAndDeterminism) {
  Rng a(77), b(77);
  Bytes ba = a.NextBytes(33);
  Bytes bb = b.NextBytes(33);
  EXPECT_EQ(ba.size(), 33u);
  EXPECT_EQ(ba, bb);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(5);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);  // same multiset
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(99), b(99);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fa.NextU64(), fb.NextU64());
  // Fork stream differs from parent's continued stream.
  Rng c(99);
  Rng fc = c.Fork();
  EXPECT_NE(fc.NextU64(), c.NextU64());
}

TEST(RngTest, SplitMix64KnownSequenceIsStable) {
  uint64_t s = 0;
  uint64_t first = SplitMix64(s);
  uint64_t second = SplitMix64(s);
  EXPECT_NE(first, second);
  // Regression pin: values must never change across refactors, or every
  // seeded experiment in the repo changes.
  uint64_t s2 = 0;
  EXPECT_EQ(SplitMix64(s2), first);
}

TEST(RngTest, ModuloBiasRejectionUniformity) {
  // Chi-square-ish sanity: 3 buckets over NextU64(3).
  Rng rng(21);
  int counts[3] = {0, 0, 0};
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextU64(3)];
  for (int c : counts) EXPECT_NEAR(c, n / 3.0, n * 0.02);
}

}  // namespace
}  // namespace pds2::common
