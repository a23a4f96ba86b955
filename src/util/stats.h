// Statistics helpers used by tests and by the experiment harnesses.
//
// The paper reasons about lottery fairness through the binomial distribution
// (number of lotteries won) and the geometric distribution (lotteries until
// first win); see Section 2. The helpers here provide those moments plus the
// histograms, goodness-of-fit tests and least squares that the
// figure-reproduction benches need. Running mean/variance is
// obs::StreamingStats (src/obs/streaming.h).

#ifndef SRC_UTIL_STATS_H_
#define SRC_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/streaming.h"

namespace lottery {

// Fixed-width bucket histogram over [lo, hi); values outside the range are
// counted in saturating under/overflow buckets. Used for the Figure 11
// mutex-waiting-time histograms.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t num_buckets);

  void Add(double x);

  size_t num_buckets() const { return counts_.size(); }
  double bucket_lo(size_t i) const;
  double bucket_hi(size_t i) const;
  int64_t bucket_count(size_t i) const { return counts_[i]; }
  int64_t underflow() const { return underflow_; }
  int64_t overflow() const { return overflow_; }
  int64_t total() const { return static_cast<int64_t>(stat_.count()); }
  const obs::StreamingStats& stat() const { return stat_; }

  // Value below which `fraction` (in [0,1]) of observations fall, estimated
  // by linear interpolation within buckets.
  double Percentile(double fraction) const;

  // Renders an ASCII bar chart, one line per bucket, for bench output.
  std::string ToAscii(size_t max_width = 50) const;

 private:
  double lo_;
  double width_;
  std::vector<int64_t> counts_;
  int64_t underflow_ = 0;
  int64_t overflow_ = 0;
  obs::StreamingStats stat_;
};

// Moments the paper quotes for n identical lotteries with win probability p
// (Section 2): wins are binomial, waits are geometric.
struct BinomialMoments {
  double mean;      // n * p
  double variance;  // n * p * (1 - p)
  double stddev;
  double cv;        // sqrt((1-p)/(n*p)) — the paper's sqrt((1-p)/np)
};
BinomialMoments BinomialStats(double n, double p);

struct GeometricMoments {
  double mean;      // 1 / p  (expected lotteries until first win)
  double variance;  // (1 - p) / p^2
  double stddev;
};
GeometricMoments GeometricStats(double p);

// Pearson chi-square statistic for observed vs. expected counts.
// `expected[i]` must be > 0 for all i.
double ChiSquareStatistic(const std::vector<int64_t>& observed,
                          const std::vector<double>& expected);

// Approximate upper critical value of the chi-square distribution with `df`
// degrees of freedom at upper-tail probability `alpha` (e.g. 0.01), using
// the Wilson-Hilferty cube approximation. Accurate to a few percent for
// df >= 3, which is ample for pass/fail property tests.
double ChiSquareCritical(int df, double alpha);

// One-sample Kolmogorov-Smirnov statistic of `samples` against the uniform
// distribution on [lo, hi]: sup |F_empirical - F_uniform|. `samples` need
// not be sorted (a sorted copy is made). Requires hi > lo and at least one
// sample. The conformance suite uses it to test that a thread's dispatch
// times are spread evenly across a run rather than bunched.
double KsStatisticUniform(const std::vector<double>& samples, double lo,
                          double hi);

// Critical value for the one-sample KS test at significance `alpha`:
// c(alpha) / sqrt(n) with c(alpha) = sqrt(-ln(alpha/2) / 2), the standard
// large-n approximation (accurate to a few percent for n >= 35).
double KsCritical(size_t n, double alpha);

// Wilson score interval for a binomial proportion: observing `successes` in
// `trials`, the returned [lo, hi] covers the true probability with
// approximately `confidence` (e.g. 0.99). Well-behaved near 0 and 1, unlike
// the normal approximation.
struct ProportionInterval {
  double lo;
  double hi;
};
ProportionInterval BinomialConfidence(int64_t successes, int64_t trials,
                                      double confidence);

// Least-squares slope/intercept of y on x. Requires xs.size() == ys.size()
// and at least two distinct x values.
struct LinearFit {
  double slope;
  double intercept;
  double r2;  // coefficient of determination
};
LinearFit FitLine(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace lottery

#endif  // SRC_UTIL_STATS_H_
