// Ablation: lottery vs stride vs decay-usage proportional accuracy.
//
// Stride scheduling (the authors' deterministic successor) and decay-usage
// timesharing bracket the design space around lottery scheduling. For a
// 2:1 target this harness reports, per policy, the mean absolute error of
// the observed throughput ratio over windows of various lengths — showing
// lottery's O(sqrt(n)) convergence, stride's near-zero error, and
// decay-usage's inability to hit a requested ratio at all.

#include <cmath>
#include <memory>

#include "bench/bench_util.h"
#include "src/obs/streaming.h"
#include "src/sched/decay_usage.h"
#include "src/sched/stride.h"

namespace lottery {
namespace {

struct WindowError {
  double mean_abs_error;
  double overall_ratio;
};

WindowError Measure(const std::string& policy, uint32_t seed,
                    int64_t window_s, int64_t seconds) {
  std::unique_ptr<Scheduler> sched;
  LotteryScheduler* lsched = nullptr;
  StrideScheduler* ssched = nullptr;
  DecayUsageScheduler* dsched = nullptr;
  if (policy == "lottery") {
    LotteryScheduler::Options o;
    o.seed = seed;
    auto s = std::make_unique<LotteryScheduler>(o);
    lsched = s.get();
    sched = std::move(s);
  } else if (policy == "stride") {
    auto s = std::make_unique<StrideScheduler>();
    ssched = s.get();
    sched = std::move(s);
  } else {
    auto s = std::make_unique<DecayUsageScheduler>();
    dsched = s.get();
    sched = std::move(s);
  }

  Tracer tracer(SimDuration::Seconds(window_s));
  Kernel::Options kopts;
  kopts.quantum = SimDuration::Millis(100);
  Kernel kernel(sched.get(), kopts, &tracer);
  const ThreadId a = kernel.Spawn("a", std::make_unique<ComputeTask>());
  const ThreadId b = kernel.Spawn("b", std::make_unique<ComputeTask>());
  if (lsched != nullptr) {
    lsched->FundThread(a, lsched->table().base(), 200);
    lsched->FundThread(b, lsched->table().base(), 100);
  } else if (ssched != nullptr) {
    ssched->SetTickets(a, 200);
    ssched->SetTickets(b, 100);
  } else {
    // Decay-usage has no ratio dial; nice=2 is a guess at "give a less".
    dsched->SetNice(b, 2);
  }
  kernel.RunFor(SimDuration::Seconds(seconds));

  obs::StreamingStats err;
  for (size_t w = 0; w < tracer.num_windows(); ++w) {
    const double pa = static_cast<double>(tracer.WindowProgress(a, w));
    const double pb = static_cast<double>(tracer.WindowProgress(b, w));
    if (pb <= 0) {
      continue;
    }
    err.Add(std::abs(pa / pb - 2.0));
  }
  WindowError result{};
  result.mean_abs_error = err.mean();
  result.overall_ratio = static_cast<double>(tracer.TotalProgress(a)) /
                         static_cast<double>(tracer.TotalProgress(b));
  return result;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  const int64_t seconds = flags.GetInt("seconds", 400);
  BenchReport report(flags, "bench_stride_ablation");
  report.Meta("seconds", seconds);

  PrintHeader("Ablation", "Lottery vs stride vs decay-usage at a 2:1 target",
              "stride: ~zero error at every window size; lottery: error "
              "shrinks ~1/sqrt(window); decay-usage: no 2:1 dial exists");

  TextTable table({"policy", "window", "mean |ratio - 2|", "overall ratio"});
  for (const char* policy : {"lottery", "stride", "decay-usage"}) {
    for (const int64_t window : {2, 8, 32}) {
      const WindowError e = Measure(policy, seed, window, seconds);
      table.AddRow({policy, std::to_string(window) + " s",
                    FormatDouble(e.mean_abs_error, 3),
                    FormatDouble(e.overall_ratio, 3)});
      report.Metric(std::string(policy) + "_w" + std::to_string(window) +
                        "_mean_abs_error",
                    e.mean_abs_error);
      report.Metric(std::string(policy) + "_w" + std::to_string(window) +
                        "_overall_ratio",
                    e.overall_ratio);
    }
  }
  table.Print(std::cout);
  std::cout << "\n(decay-usage rows use nice=2 for the low-share task — the "
               "closest knob it offers; note the ratio it lands on is "
               "emergent, not requested)\n";
  report.Write();
  return 0;
}

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) { return lottery::Main(argc, argv); }
