// Tests for the O(1)-memory streaming moment accumulator used by the scale
// bench to summarise per-thread share error without per-thread storage.

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/streaming.h"
#include "src/util/fastrand.h"

namespace lottery {
namespace {

TEST(StreamingStats, EmptyIsAllZeros) {
  obs::StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.sample_variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(StreamingStats, SingleValue) {
  obs::StreamingStats s;
  s.Add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.sample_variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(StreamingStats, MatchesClosedFormMoments) {
  // 1..100: mean 50.5, population variance (n^2 - 1)/12 = 833.25.
  obs::StreamingStats s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_EQ(s.count(), 100u);
  EXPECT_NEAR(s.mean(), 50.5, 1e-9);
  EXPECT_NEAR(s.variance(), 833.25, 1e-6);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(StreamingStats, KnownPopulationAndSampleMoments) {
  // The classic population-variance example: mean 5, variance 4, and
  // sample variance (divide by n - 1) 32/7.
  obs::StreamingStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_NEAR(s.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.sample_stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(StreamingStats, MergeEqualsSingleAccumulator) {
  FastRand rng(12345);
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(rng.NextUnit() * 2000.0 - 1000.0);
  }

  obs::StreamingStats whole;
  for (double v : values) {
    whole.Add(v);
  }

  // Shard into uneven pieces (including an empty shard) and merge.
  obs::StreamingStats merged;
  obs::StreamingStats shard;
  size_t i = 0;
  for (size_t shard_size : {size_t{1}, size_t{0}, size_t{9}, size_t{4990},
                            size_t{5000}}) {
    shard.Reset();
    for (size_t k = 0; k < shard_size; ++k) {
      shard.Add(values[i++]);
    }
    merged.Merge(shard);
  }
  ASSERT_EQ(i, values.size());

  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(merged.min(), whole.min());
  EXPECT_DOUBLE_EQ(merged.max(), whole.max());
}

TEST(StreamingStats, MergeIntoEmptyCopiesOther) {
  obs::StreamingStats a;
  a.Add(1.0);
  a.Add(2.0);
  obs::StreamingStats b;
  b.Merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
  // Merging an empty accumulator is a no-op.
  obs::StreamingStats empty;
  b.Merge(empty);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(StreamingStats, VarianceIsNumericallyStableForLargeOffsets) {
  // Naive sum-of-squares accumulation loses all precision here; Welford
  // keeps the exact answer. Values: 1e9 + {1, 2, 3}.
  obs::StreamingStats s;
  s.Add(1e9 + 1.0);
  s.Add(1e9 + 2.0);
  s.Add(1e9 + 3.0);
  EXPECT_NEAR(s.mean(), 1e9 + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-6);
}

TEST(StreamingStats, ResetClears) {
  obs::StreamingStats s;
  s.Add(10.0);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(StreamingStats, MergeEmptyIntoEmptyStaysEmpty) {
  obs::StreamingStats a;
  obs::StreamingStats b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
  EXPECT_EQ(a.min(), 0.0);
  EXPECT_EQ(a.max(), 0.0);
  // Still usable as a fresh accumulator afterwards.
  a.Add(7.0);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 7.0);
}

TEST(StreamingStats, SingleSampleMergesBothDirections) {
  // Chan's combination formula divides by the combined count; n=1 shards
  // are the degenerate case the timeseries downsampler hits on every
  // compaction boundary.
  obs::StreamingStats one;
  one.Add(5.0);
  obs::StreamingStats many;
  many.Add(1.0);
  many.Add(3.0);

  obs::StreamingStats a = many;
  a.Merge(one);
  obs::StreamingStats b = one;
  b.Merge(many);

  for (const obs::StreamingStats* s : {&a, &b}) {
    EXPECT_EQ(s->count(), 3u);
    EXPECT_DOUBLE_EQ(s->mean(), 3.0);
    EXPECT_NEAR(s->variance(), 8.0 / 3.0, 1e-12);
    EXPECT_EQ(s->min(), 1.0);
    EXPECT_EQ(s->max(), 5.0);
  }

  obs::StreamingStats c;
  c.Add(2.0);
  obs::StreamingStats d;
  d.Add(4.0);
  c.Merge(d);  // single merged into single
  EXPECT_EQ(c.count(), 2u);
  EXPECT_DOUBLE_EQ(c.mean(), 3.0);
  EXPECT_NEAR(c.variance(), 1.0, 1e-12);
}

TEST(StreamingStats, VarianceStableAtLargeCounts) {
  // A million near-identical observations around a large offset: the M2
  // update must not let rounding in the running mean swamp the tiny true
  // variance. Values alternate 1e6 ± 0.5, so variance is exactly 0.25.
  obs::StreamingStats s;
  for (int i = 0; i < 1'000'000; ++i) {
    s.Add(1e6 + ((i & 1) != 0 ? 0.5 : -0.5));
  }
  EXPECT_EQ(s.count(), 1'000'000u);
  EXPECT_NEAR(s.mean(), 1e6, 1e-6);
  EXPECT_NEAR(s.variance(), 0.25, 1e-9);
  EXPECT_NEAR(s.stddev(), 0.5, 1e-9);
}

TEST(StreamingStats, MergeIsCommutativeUpToRounding) {
  // Shards of very different sizes and magnitudes merged in both orders
  // must agree to tight tolerance (Chan's formula is symmetric; only
  // floating-point rounding differs).
  FastRand rng(0xc0ffee42u);
  obs::StreamingStats big;
  for (int i = 0; i < 10'000; ++i) {
    big.Add(static_cast<double>(rng.Next() % 1000u));
  }
  obs::StreamingStats small;
  for (int i = 0; i < 3; ++i) {
    small.Add(1e7 + static_cast<double>(i));
  }

  obs::StreamingStats ab = big;
  ab.Merge(small);
  obs::StreamingStats ba = small;
  ba.Merge(big);

  EXPECT_EQ(ab.count(), ba.count());
  EXPECT_NEAR(ab.mean(), ba.mean(), 1e-9 * ab.mean());
  EXPECT_NEAR(ab.variance(), ba.variance(), 1e-9 * ab.variance());
  EXPECT_EQ(ab.min(), ba.min());
  EXPECT_EQ(ab.max(), ba.max());
}

}  // namespace
}  // namespace lottery
