// Unit tests for the des layer's RNG: determinism, ranges, moments and
// stream independence.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "des/random.h"

namespace airindex {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(37), 37u);
  }
}

TEST(Rng, BoundedIsRoughlyUniform) {
  Rng rng(13);
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.NextBounded(kBuckets)];
  }
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, 500);  // ~5 sigma
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const double o = rng.NextDoubleOpen();
    EXPECT_GT(o, 0.0);
    EXPECT_LE(o, 1.0);
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(19);
  double sum = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const double d = rng.NextExponential(500.0);
    EXPECT_GE(d, 0.0);
    sum += d;
  }
  EXPECT_NEAR(sum / kDraws, 500.0, 5.0);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(31);
  Rng b = a.Split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Mix64, IsBijectiveLooking) {
  // No collisions among a modest sample and not the identity.
  std::vector<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 1000; ++i) out.push_back(Mix64(i));
  std::sort(out.begin(), out.end());
  EXPECT_EQ(std::adjacent_find(out.begin(), out.end()), out.end());
  EXPECT_NE(Mix64(1), 1u);
}

}  // namespace
}  // namespace airindex
