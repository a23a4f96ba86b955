// lotlint: file float-ok (descriptive statistics are float by design; results
// feed reports and telemetry, never ticket or pass state)
#include "src/util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace lottery {

Histogram::Histogram(double lo, double hi, size_t num_buckets)
    : lo_(lo),
      width_((hi - lo) / static_cast<double>(num_buckets)),
      counts_(num_buckets, 0) {
  if (num_buckets == 0 || !(hi > lo)) {
    throw std::invalid_argument("Histogram: empty range");
  }
}

void Histogram::Add(double x) {
  stat_.Add(x);
  if (x < lo_) {
    ++underflow_;
    return;
  }
  const double offset = (x - lo_) / width_;
  if (offset >= static_cast<double>(counts_.size())) {
    ++overflow_;
    return;
  }
  ++counts_[static_cast<size_t>(offset)];
}

double Histogram::bucket_lo(size_t i) const {
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::bucket_hi(size_t i) const {
  return lo_ + width_ * static_cast<double>(i + 1);
}

double Histogram::Percentile(double fraction) const {
  fraction = std::clamp(fraction, 0.0, 1.0);
  const int64_t in_range = total() - underflow_ - overflow_;
  if (in_range <= 0) {
    return lo_;
  }
  const double target =
      fraction * static_cast<double>(in_range);
  double cumulative = 0.0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double within =
          counts_[i] > 0
              ? (target - cumulative) / static_cast<double>(counts_[i])
              : 0.0;
      return bucket_lo(i) + within * width_;
    }
    cumulative = next;
  }
  return bucket_hi(counts_.size() - 1);
}

std::string Histogram::ToAscii(size_t max_width) const {
  int64_t peak = 1;
  for (const int64_t c : counts_) {
    peak = std::max(peak, c);
  }
  std::ostringstream out;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const size_t bar = static_cast<size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(max_width));
    out << "[" << bucket_lo(i) << ", " << bucket_hi(i) << ") "
        << std::string(bar, '#') << " " << counts_[i] << "\n";
  }
  return out.str();
}

BinomialMoments BinomialStats(double n, double p) {
  BinomialMoments m{};
  m.mean = n * p;
  m.variance = n * p * (1.0 - p);
  m.stddev = std::sqrt(m.variance);
  m.cv = m.mean > 0.0 ? std::sqrt((1.0 - p) / (n * p)) : 0.0;
  return m;
}

GeometricMoments GeometricStats(double p) {
  GeometricMoments m{};
  if (p <= 0.0) {
    m.mean = std::numeric_limits<double>::infinity();
    m.variance = std::numeric_limits<double>::infinity();
    m.stddev = std::numeric_limits<double>::infinity();
    return m;
  }
  m.mean = 1.0 / p;
  m.variance = (1.0 - p) / (p * p);
  m.stddev = std::sqrt(m.variance);
  return m;
}

double ChiSquareStatistic(const std::vector<int64_t>& observed,
                          const std::vector<double>& expected) {
  if (observed.size() != expected.size()) {
    throw std::invalid_argument("ChiSquareStatistic: size mismatch");
  }
  double chi2 = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    if (expected[i] <= 0.0) {
      throw std::invalid_argument("ChiSquareStatistic: expected <= 0");
    }
    const double d = static_cast<double>(observed[i]) - expected[i];
    chi2 += d * d / expected[i];
  }
  return chi2;
}

namespace {

// Inverse standard-normal CDF via Acklam-style rational approximation
// (Beasley-Springer-Moro coefficients; sufficient accuracy for test
// thresholds).
double InverseNormal(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  }
  const double q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

double ChiSquareCritical(int df, double alpha) {
  if (df < 1) {
    throw std::invalid_argument("ChiSquareCritical: df < 1");
  }
  const double z = InverseNormal(1.0 - alpha);
  // Wilson-Hilferty: chi2 ~ df * (1 - 2/(9 df) + z sqrt(2/(9 df)))^3.
  const double k = static_cast<double>(df);
  const double t = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * t * t * t;
}

double KsStatisticUniform(const std::vector<double>& samples, double lo,
                          double hi) {
  if (samples.empty()) {
    throw std::invalid_argument("KsStatisticUniform: no samples");
  }
  if (!(hi > lo)) {
    throw std::invalid_argument("KsStatisticUniform: empty range");
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  double sup = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    const double f =
        std::clamp((sorted[i] - lo) / (hi - lo), 0.0, 1.0);
    // Both one-sided gaps around the step at sample i.
    const double above = static_cast<double>(i + 1) / n - f;
    const double below = f - static_cast<double>(i) / n;
    sup = std::max({sup, above, below});
  }
  return sup;
}

double KsCritical(size_t n, double alpha) {
  if (n == 0) {
    throw std::invalid_argument("KsCritical: n == 0");
  }
  if (!(alpha > 0.0 && alpha < 1.0)) {
    throw std::invalid_argument("KsCritical: alpha outside (0,1)");
  }
  const double c = std::sqrt(-std::log(alpha / 2.0) / 2.0);
  return c / std::sqrt(static_cast<double>(n));
}

ProportionInterval BinomialConfidence(int64_t successes, int64_t trials,
                                      double confidence) {
  if (trials <= 0 || successes < 0 || successes > trials) {
    throw std::invalid_argument("BinomialConfidence: bad counts");
  }
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument("BinomialConfidence: confidence outside (0,1)");
  }
  const double z = InverseNormal(0.5 + confidence / 2.0);
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom;
  return ProportionInterval{std::max(0.0, center - margin),
                            std::min(1.0, center + margin)};
}

}  // namespace lottery
