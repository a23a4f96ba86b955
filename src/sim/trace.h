// Metric collection for experiments.
//
// Workload bodies report abstract progress units (iterations, frames,
// queries) and latencies; the Tracer buckets them into fixed windows of
// simulated time so benches can print the same time series the paper's
// figures plot (e.g. Figure 5's 8-second iteration-rate windows).

#ifndef SRC_SIM_TRACE_H_
#define SRC_SIM_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/streaming.h"
#include "src/sched/scheduler.h"
#include "src/util/sim_time.h"

namespace lottery {

class Tracer {
 public:
  explicit Tracer(SimDuration window = SimDuration::Seconds(1));

  // --- Progress counters ----------------------------------------------------

  void AddProgress(ThreadId tid, SimTime now, int64_t delta);
  int64_t TotalProgress(ThreadId tid) const;
  // Progress of `tid` during window `w` (w = floor(time/window)).
  int64_t WindowProgress(ThreadId tid, size_t w) const;
  size_t num_windows() const { return num_windows_; }
  SimDuration window() const { return window_; }

  // --- Named scalar samples (latencies, rates, errors) ----------------------

  void RecordSample(const std::string& series, SimTime now, double value);
  struct Sample {
    double time_sec;
    double value;
  };
  const std::vector<Sample>& Samples(const std::string& series) const;
  obs::StreamingStats SampleStats(const std::string& series) const;

  // --- Dispatch timeline ------------------------------------------------------

  struct Dispatch {
    ThreadId tid;
    int cpu;
    double start_sec;
    double duration_sec;
  };

  // Enables per-dispatch recording (off by default; a long run generates
  // millions of slices). Recording stops at `cap` entries; every dispatch
  // past the cap is counted in dropped() — never silently discarded.
  void EnableDispatchLog(size_t cap = 1000000);
  bool dispatch_log_enabled() const { return dispatch_log_enabled_; }
  void RecordDispatch(ThreadId tid, int cpu, SimTime start, SimDuration used);
  const std::vector<Dispatch>& dispatches() const { return dispatches_; }
  // Dispatches that arrived after the log hit its cap.
  uint64_t dropped() const { return dispatch_dropped_; }

  // --- Export ----------------------------------------------------------------

  // Windowed progress as CSV: one row per window, one column per thread
  // (labelled by `labels`, aligned with `tids`). For re-plotting figures.
  std::string WindowsCsv(const std::vector<ThreadId>& tids,
                         const std::vector<std::string>& labels) const;

 private:
  SimDuration window_;
  size_t num_windows_ = 0;
  std::map<ThreadId, std::vector<int64_t>> progress_;  // per-window deltas
  std::map<ThreadId, int64_t> totals_;
  std::map<std::string, std::vector<Sample>> samples_;
  bool dispatch_log_enabled_ = false;
  size_t dispatch_cap_ = 0;
  uint64_t dispatch_dropped_ = 0;
  std::vector<Dispatch> dispatches_;
};

}  // namespace lottery

#endif  // SRC_SIM_TRACE_H_
