// Tests for the Park-Miller generator (Appendix A of the paper).

#include "src/util/fastrand.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "src/obs/streaming.h"
#include "src/util/stats.h"

namespace lottery {
namespace {

TEST(FastRand, FirstValueFromSeedOne) {
  // S' = 16807 * 1 mod (2^31 - 1).
  FastRand rng(1);
  EXPECT_EQ(rng.Next(), 16807u);
}

TEST(FastRand, SecondValueFromSeedOne) {
  FastRand rng(1);
  rng.Next();
  EXPECT_EQ(rng.Next(), 282475249u);  // 16807^2 mod (2^31 - 1)
}

TEST(FastRand, TenThousandthValueMatchesParkMillerCanonicalCheck) {
  // Park & Miller's published self-check: starting from seed 1, the
  // 10,000th value of the minimal standard generator is 1043618065.
  FastRand rng(1);
  uint32_t value = 0;
  for (int i = 0; i < 10000; ++i) {
    value = rng.Next();
  }
  EXPECT_EQ(value, 1043618065u);
}

TEST(FastRand, MatchesDirectModularRecurrence) {
  // The Carta-trick implementation must equal the plain 64-bit mod form.
  FastRand rng(42);
  uint64_t s = 42;
  for (int i = 0; i < 100000; ++i) {
    s = (s * 16807u) % 0x7FFFFFFFull;
    ASSERT_EQ(rng.Next(), s) << "diverged at step " << i;
  }
}

TEST(FastRand, OutputAlwaysInValidRange) {
  FastRand rng(987654321);
  for (int i = 0; i < 100000; ++i) {
    const uint32_t v = rng.Next();
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, FastRand::kModulus - 1);
  }
}

TEST(FastRand, ZeroSeedIsCoercedToValidState) {
  FastRand rng(0);
  EXPECT_EQ(rng.Next(), 16807u);  // behaves as seed 1
}

TEST(FastRand, ModulusSeedIsCoercedToValidState) {
  FastRand rng(FastRand::kModulus);
  EXPECT_EQ(rng.Next(), 16807u);  // kModulus folds to 0 folds to 1
}

TEST(FastRand, SeedAboveModulusIsFolded) {
  FastRand a(FastRand::kModulus + 5u);
  FastRand b(5u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(FastRand, SameSeedSameSequence) {
  FastRand a(777);
  FastRand b(777);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next());
  }
}

TEST(FastRand, DifferentSeedsDiverge) {
  FastRand a(777);
  FastRand b(778);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() != b.Next()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 90);
}

TEST(FastRand, NextBelowStaysInBound) {
  FastRand rng(3);
  for (uint32_t bound : {1u, 2u, 3u, 7u, 100u, 1000000u}) {
    for (int i = 0; i < 1000; ++i) {
      ASSERT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(FastRand, NextBelowOneAlwaysZero) {
  FastRand rng(5);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(rng.NextBelow(1), 0u);
  }
}

TEST(FastRand, NextBelowIsUniformChiSquare) {
  FastRand rng(20260706);
  constexpr uint32_t kBuckets = 10;
  constexpr int kDraws = 100000;
  std::vector<int64_t> observed(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++observed[rng.NextBelow(kBuckets)];
  }
  const std::vector<double> expected(kBuckets,
                                     static_cast<double>(kDraws) / kBuckets);
  const double chi2 = ChiSquareStatistic(observed, expected);
  EXPECT_LT(chi2, ChiSquareCritical(kBuckets - 1, 0.001));
}

TEST(FastRand, Next62CoversWideRange) {
  FastRand rng(11);
  uint64_t max_seen = 0;
  for (int i = 0; i < 100000; ++i) {
    max_seen = std::max(max_seen, rng.Next62());
  }
  // With 100k draws over ~4.6e18 the max should land in the top few percent.
  EXPECT_GT(max_seen, uint64_t{4} * 1000 * 1000 * 1000 * 1000 * 1000 * 1000);
}

TEST(FastRand, NextBelow64StaysInBound) {
  FastRand rng(13);
  const uint64_t bound = uint64_t{3} * 1000 * 1000 * 1000 * 1000;
  for (int i = 0; i < 10000; ++i) {
    ASSERT_LT(rng.NextBelow64(bound), bound);
  }
}

TEST(FastRand, NextBelow64UniformOverSmallBound) {
  FastRand rng(17);
  constexpr uint64_t kBuckets = 7;
  constexpr int kDraws = 70000;
  std::vector<int64_t> observed(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) {
    ++observed[rng.NextBelow64(kBuckets)];
  }
  const std::vector<double> expected(kBuckets,
                                     static_cast<double>(kDraws) / kBuckets);
  EXPECT_LT(ChiSquareStatistic(observed, expected),
            ChiSquareCritical(static_cast<int>(kBuckets) - 1, 0.001));
}

TEST(FastRand, NextUnitInHalfOpenUnitInterval) {
  FastRand rng(19);
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.NextUnit();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(FastRand, NextUnitMeanNearHalf) {
  FastRand rng(23);
  obs::StreamingStats stat;
  for (int i = 0; i < 200000; ++i) {
    stat.Add(rng.NextUnit());
  }
  EXPECT_NEAR(stat.mean(), 0.5, 0.005);
}

TEST(FastRand, SplitProducesDecorrelatedStream) {
  FastRand parent(29);
  FastRand child = parent.Split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.Next() == child.Next()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 5);
}

TEST(FastRand, StateRoundTripsThroughSeed) {
  FastRand rng(31);
  rng.Next();
  rng.Next();
  const uint32_t snapshot = rng.state();
  FastRand resumed(snapshot);
  FastRand original = rng;
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(resumed.Next(), original.Next());
  }
}

TEST(FastRand, NoShortCycleInFirstMillionDraws) {
  FastRand rng(37);
  const uint32_t first = rng.Next();
  for (int i = 0; i < 1000000; ++i) {
    ASSERT_NE(rng.Next(), first) << "cycle after " << i + 1 << " draws";
    if (i % 100000 == 0 && ::testing::Test::HasFatalFailure()) {
      break;
    }
  }
  SUCCEED();
}

TEST(SplitMix64, KnownFirstOutputs) {
  // Reference values for seed 0 from the public-domain splitmix64.
  SplitMix64 rng(0);
  EXPECT_EQ(rng.Next(), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(rng.Next(), 0x6E789E6AA1B965F4ull);
  EXPECT_EQ(rng.Next(), 0x06C45D188009454Full);
}

TEST(SplitMix64, FastRandSeedsAreValid) {
  SplitMix64 rng(123456);
  for (int i = 0; i < 10000; ++i) {
    const uint32_t seed = rng.NextFastRandSeed();
    ASSERT_GE(seed, 1u);
    ASSERT_LT(seed, FastRand::kModulus);
  }
}

// Property sweep: NextBelow is unbiased for bounds that do not divide the
// raw range (the rejection path must fire).
class FastRandBoundSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FastRandBoundSweep, NextBelowUnbiased) {
  const uint32_t bound = GetParam();
  FastRand rng(1000 + bound);
  const int draws = static_cast<int>(bound) * 2000;
  std::vector<int64_t> observed(bound, 0);
  for (int i = 0; i < draws; ++i) {
    ++observed[rng.NextBelow(bound)];
  }
  const std::vector<double> expected(bound,
                                     static_cast<double>(draws) / bound);
  EXPECT_LT(ChiSquareStatistic(observed, expected),
            ChiSquareCritical(static_cast<int>(bound) - 1, 0.001));
}

INSTANTIATE_TEST_SUITE_P(Bounds, FastRandBoundSweep,
                         ::testing::Values(2u, 3u, 5u, 6u, 9u, 11u, 17u, 33u));

}  // namespace
}  // namespace lottery
