#include "src/util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace lottery {
namespace {

TEST(Histogram, RejectsEmptyRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, BucketsAndEdges) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_EQ(h.num_buckets(), 5u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
  h.Add(0.0);   // bucket 0
  h.Add(1.99);  // bucket 0
  h.Add(2.0);   // bucket 1
  h.Add(9.99);  // bucket 4
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(4), 1);
}

TEST(Histogram, UnderAndOverflow) {
  Histogram h(0.0, 1.0, 2);
  h.Add(-0.5);
  h.Add(1.0);
  h.Add(7.0);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 2);
  EXPECT_EQ(h.total(), 3);
}

TEST(Histogram, PercentileInterpolates) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) {
    h.Add(static_cast<double>(i) + 0.5);
  }
  EXPECT_NEAR(h.Percentile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.Percentile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.Percentile(0.0), 0.0, 1.5);
}

TEST(Histogram, StatTracksAllValuesIncludingOutOfRange) {
  Histogram h(0.0, 1.0, 2);
  h.Add(-1.0);
  h.Add(3.0);
  EXPECT_DOUBLE_EQ(h.stat().mean(), 1.0);
}

TEST(Histogram, AsciiHasOneLinePerBucket) {
  Histogram h(0.0, 4.0, 4);
  h.Add(1.0);
  const std::string art = h.ToAscii();
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
}

TEST(BinomialStats, MatchesSectionTwoFormulas) {
  // Paper Section 2: n lotteries, win probability p: E = np,
  // Var = np(1-p), cv = sqrt((1-p)/np).
  const auto m = BinomialStats(100.0, 0.25);
  EXPECT_DOUBLE_EQ(m.mean, 25.0);
  EXPECT_DOUBLE_EQ(m.variance, 18.75);
  EXPECT_DOUBLE_EQ(m.stddev, std::sqrt(18.75));
  EXPECT_DOUBLE_EQ(m.cv, std::sqrt(0.75 / 25.0));
}

TEST(BinomialStats, CvShrinksWithSqrtN) {
  const auto small = BinomialStats(100.0, 0.5);
  const auto large = BinomialStats(10000.0, 0.5);
  EXPECT_NEAR(small.cv / large.cv, 10.0, 1e-9);
}

TEST(GeometricStats, MatchesSectionTwoFormulas) {
  // E[lotteries until first win] = 1/p, Var = (1-p)/p^2.
  const auto m = GeometricStats(0.2);
  EXPECT_DOUBLE_EQ(m.mean, 5.0);
  EXPECT_DOUBLE_EQ(m.variance, 0.8 / 0.04);
}

TEST(GeometricStats, ZeroProbabilityMeansInfiniteWait) {
  const auto m = GeometricStats(0.0);
  EXPECT_TRUE(std::isinf(m.mean));
}

TEST(ChiSquare, StatisticKnownValue) {
  // Observed {10, 20, 30}, expected {20, 20, 20}:
  // (100 + 0 + 100) / 20 = 10.
  EXPECT_DOUBLE_EQ(
      ChiSquareStatistic({10, 20, 30}, {20.0, 20.0, 20.0}), 10.0);
}

TEST(ChiSquare, StatisticRejectsBadInput) {
  EXPECT_THROW(ChiSquareStatistic({1}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(ChiSquareStatistic({1}, {0.0}), std::invalid_argument);
}

TEST(ChiSquare, CriticalValuesNearTables) {
  // Standard table: chi2(df=10, alpha=0.05) = 18.307;
  // chi2(df=5, 0.01) = 15.086; chi2(df=30, 0.05) = 43.773.
  EXPECT_NEAR(ChiSquareCritical(10, 0.05), 18.307, 0.25);
  EXPECT_NEAR(ChiSquareCritical(5, 0.01), 15.086, 0.35);
  EXPECT_NEAR(ChiSquareCritical(30, 0.05), 43.773, 0.5);
}

TEST(ChiSquare, CriticalRejectsBadDf) {
  EXPECT_THROW(ChiSquareCritical(0, 0.05), std::invalid_argument);
}

TEST(KolmogorovSmirnov, PerfectlyUniformGridScoresLow) {
  // Midpoints of n equal buckets: the empirical CDF straddles the uniform
  // CDF symmetrically, so the statistic is exactly 1/(2n).
  std::vector<double> samples;
  const int n = 100;
  for (int i = 0; i < n; ++i) {
    samples.push_back((i + 0.5) / n);
  }
  EXPECT_NEAR(KsStatisticUniform(samples, 0.0, 1.0), 1.0 / (2.0 * n), 1e-12);
  EXPECT_LT(KsStatisticUniform(samples, 0.0, 1.0), KsCritical(n, 0.01));
}

TEST(KolmogorovSmirnov, BunchedSamplesScoreHigh) {
  // Everything in the first tenth of the range: D is nearly 0.9.
  std::vector<double> samples;
  for (int i = 0; i < 50; ++i) {
    samples.push_back(0.1 * (i + 0.5) / 50.0);
  }
  const double d = KsStatisticUniform(samples, 0.0, 1.0);
  EXPECT_GT(d, 0.85);
  EXPECT_GT(d, KsCritical(samples.size(), 0.01));
}

TEST(KolmogorovSmirnov, UnsortedInputAndCustomRange) {
  // Samples at 10/20/30 of [0,40]: the largest gap is the 1/4 between
  // F(10-) = 0 and the uniform CDF 0.25 (and symmetrically at 30).
  const std::vector<double> samples = {30.0, 10.0, 20.0};
  EXPECT_NEAR(KsStatisticUniform(samples, 0.0, 40.0), 0.25, 1e-12);
}

TEST(KolmogorovSmirnov, CriticalMatchesLargeSampleTable) {
  // c(0.01) = 1.6276, c(0.05) = 1.3581 (classic large-n table values).
  EXPECT_NEAR(KsCritical(100, 0.01), 1.6276 / 10.0, 1e-3);
  EXPECT_NEAR(KsCritical(400, 0.05), 1.3581 / 20.0, 1e-3);
  EXPECT_GT(KsCritical(10, 0.01), KsCritical(1000, 0.01));
}

TEST(KolmogorovSmirnov, RejectsBadInput) {
  EXPECT_THROW(KsStatisticUniform({}, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(KsStatisticUniform({0.5}, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(KsCritical(0, 0.01), std::invalid_argument);
  EXPECT_THROW(KsCritical(10, 0.0), std::invalid_argument);
  EXPECT_THROW(KsCritical(10, 1.0), std::invalid_argument);
}

TEST(BinomialConfidence, WilsonIntervalBracketsTruthAndShrinks) {
  // 700 of 1000 at 99%: the interval must bracket 0.7 tightly.
  const ProportionInterval i1 = BinomialConfidence(700, 1000, 0.99);
  EXPECT_LT(i1.lo, 0.7);
  EXPECT_GT(i1.hi, 0.7);
  EXPECT_LT(i1.hi - i1.lo, 0.08);
  // Ten times the data: strictly narrower.
  const ProportionInterval i2 = BinomialConfidence(7000, 10000, 0.99);
  EXPECT_LT(i2.hi - i2.lo, i1.hi - i1.lo);
  // Wilson handles the boundary gracefully (no NaN, stays inside [0,1]).
  const ProportionInterval edge = BinomialConfidence(0, 20, 0.99);
  EXPECT_GE(edge.lo, 0.0);
  EXPECT_GT(edge.hi, 0.0);
  EXPECT_LT(edge.hi, 0.4);
}

TEST(BinomialConfidence, RejectsBadInput) {
  EXPECT_THROW(BinomialConfidence(5, 0, 0.99), std::invalid_argument);
  EXPECT_THROW(BinomialConfidence(-1, 10, 0.99), std::invalid_argument);
  EXPECT_THROW(BinomialConfidence(11, 10, 0.99), std::invalid_argument);
  EXPECT_THROW(BinomialConfidence(5, 10, 1.0), std::invalid_argument);
}

TEST(FitLine, ExactLine) {
  const auto fit = FitLine({1.0, 2.0, 3.0, 4.0}, {3.0, 5.0, 7.0, 9.0});
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLine, NoisyLineStillCloseAndR2Sane) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 50; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i + ((i % 2 == 0) ? 0.5 : -0.5));
  }
  const auto fit = FitLine(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 0.01);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(FitLine, RejectsDegenerateInput) {
  EXPECT_THROW(FitLine({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(FitLine({2.0, 2.0}, {1.0, 3.0}), std::invalid_argument);
  EXPECT_THROW(FitLine({1.0, 2.0}, {1.0}), std::invalid_argument);
}

}  // namespace
}  // namespace lottery
