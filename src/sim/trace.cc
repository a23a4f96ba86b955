#include "src/sim/trace.h"

#include <sstream>
#include <stdexcept>

namespace lottery {

Tracer::Tracer(SimDuration window) : window_(window) {
  if (window.nanos() <= 0) {
    throw std::invalid_argument("Tracer: window must be positive");
  }
}

void Tracer::AddProgress(ThreadId tid, SimTime now, int64_t delta) {
  const size_t w = static_cast<size_t>(now.nanos() / window_.nanos());
  auto& vec = progress_[tid];
  if (vec.size() <= w) {
    vec.resize(w + 1, 0);
  }
  vec[w] += delta;
  totals_[tid] += delta;
  if (w + 1 > num_windows_) {
    num_windows_ = w + 1;
  }
}

int64_t Tracer::TotalProgress(ThreadId tid) const {
  const auto it = totals_.find(tid);
  return it != totals_.end() ? it->second : 0;
}

int64_t Tracer::WindowProgress(ThreadId tid, size_t w) const {
  const auto it = progress_.find(tid);
  if (it == progress_.end() || w >= it->second.size()) {
    return 0;
  }
  return it->second[w];
}

void Tracer::RecordSample(const std::string& series, SimTime now,
                          double value) {
  samples_[series].push_back(Sample{now.ToSecondsF(), value});
}

const std::vector<Tracer::Sample>& Tracer::Samples(
    const std::string& series) const {
  static const std::vector<Sample> kEmpty;
  const auto it = samples_.find(series);
  return it != samples_.end() ? it->second : kEmpty;
}

obs::StreamingStats Tracer::SampleStats(const std::string& series) const {
  obs::StreamingStats stat;
  for (const Sample& s : Samples(series)) {
    stat.Add(s.value);
  }
  return stat;
}

void Tracer::EnableDispatchLog(size_t cap) {
  dispatch_log_enabled_ = true;
  dispatch_cap_ = cap;
  dispatches_.reserve(std::min<size_t>(cap, 4096));
}

void Tracer::RecordDispatch(ThreadId tid, int cpu, SimTime start,
                            SimDuration used) {
  if (!dispatch_log_enabled_) {
    return;
  }
  if (dispatches_.size() >= dispatch_cap_) {
    ++dispatch_dropped_;
    return;
  }
  dispatches_.push_back(
      Dispatch{tid, cpu, start.ToSecondsF(), used.ToSecondsF()});
}

std::string Tracer::WindowsCsv(const std::vector<ThreadId>& tids,
                               const std::vector<std::string>& labels) const {
  if (tids.size() != labels.size()) {
    throw std::invalid_argument("WindowsCsv: tids/labels size mismatch");
  }
  std::ostringstream out;
  out << "window_start_sec";
  for (const std::string& label : labels) {
    out << "," << label;
  }
  out << "\n";
  for (size_t w = 0; w < num_windows_; ++w) {
    out << static_cast<double>(w) * window_.ToSecondsF();
    for (const ThreadId tid : tids) {
      out << "," << WindowProgress(tid, w);
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace lottery
