// lotlint: file float-ok (streaming moment accumulation is float by design;
// results feed telemetry downsampling, never ticket or pass state)
#include "src/obs/streaming.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace lottery {
namespace obs {

void StreamingStats::Add(double value) {
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  const double delta = value - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (value - mean_);
}

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * (nb / total);
  m2_ += other.m2_ + delta * delta * (na * nb / total);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void StreamingStats::Reset() { *this = StreamingStats(); }

double StreamingStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  // m2_ can drift a hair below zero from cancellation; clamp.
  return std::max(0.0, m2_ / static_cast<double>(count_));
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double StreamingStats::sample_variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return std::max(0.0, m2_ / static_cast<double>(count_ - 1));
}

double StreamingStats::sample_stddev() const {
  return std::sqrt(sample_variance());
}

std::string StreamingStats::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.6g stddev=%.6g min=%.6g max=%.6g",
                static_cast<unsigned long long>(count_), mean(), stddev(),
                min(), max());
  return buf;
}

}  // namespace obs
}  // namespace lottery
