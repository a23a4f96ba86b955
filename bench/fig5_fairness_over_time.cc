// Figure 5: Fairness Over Time.
//
// Two Dhrystone tasks with a 2:1 ticket allocation run for 200 seconds; the
// average iterations/sec for each task is reported over a series of 8-second
// windows. The paper observes the tasks staying close to the allocated 2:1
// throughout (their run averaged 25378 vs 12619 iterations/sec, a 2.01:1
// overall ratio).

#include <fstream>

#include "bench/bench_util.h"
#include "src/obs/streaming.h"

namespace lottery {
namespace {

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  const int64_t seconds = flags.GetInt("seconds", 200);
  BenchReport report(flags, "fig5_fairness_over_time");
  report.Meta("seconds", seconds);

  PrintHeader("Figure 5", "Fairness over time (2:1 allocation, 8 s windows)",
              "per-window rates hover near 2:1 for the whole 200 s run");

  const auto trace = MakeTrace(flags);  // --trace=PATH (etrace binary)
  LotteryRig rig(seed, /*quantum_ms=*/100, SimDuration::Seconds(8),
                 trace.get());
  const ThreadId a = rig.SpawnCompute("a", rig.scheduler->table().base(), 200);
  const ThreadId b = rig.SpawnCompute("b", rig.scheduler->table().base(), 100);
  TimeseriesRecorder ts(flags, "fig5_fairness_over_time", rig.kernel.get());
  ts.AttachScheduler(rig.scheduler.get());
  ts.Track(a, "a");
  ts.Track(b, "b");
  rig.kernel->RunFor(SimDuration::Seconds(seconds));

  TextTable table({"window (s)", "task A iter/s", "task B iter/s", "ratio"});
  obs::StreamingStats ratio_stat;
  for (size_t w = 0; w < rig.tracer.num_windows(); ++w) {
    if (static_cast<int64_t>((w + 1) * 8) > seconds) {
      break;  // partial window at the horizon
    }
    const double wa = static_cast<double>(rig.tracer.WindowProgress(a, w)) / 8;
    const double wb = static_cast<double>(rig.tracer.WindowProgress(b, w)) / 8;
    if (wa + wb == 0) {
      continue;
    }
    const double r = wb > 0 ? wa / wb : 0.0;
    ratio_stat.Add(r);
    table.AddRow({std::to_string(w * 8) + "-" + std::to_string(w * 8 + 8),
                  FormatDouble(wa, 0), FormatDouble(wb, 0),
                  FormatDouble(r, 2)});
  }
  table.Print(std::cout);

  // Optional machine-readable dump for re-plotting (--csv=<path>).
  const std::string csv_path = flags.GetString("csv", "");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    out << rig.tracer.WindowsCsv({a, b}, {"task_a", "task_b"});
    std::cout << "(window series written to " << csv_path << ")\n";
  }

  const double total_ratio = static_cast<double>(rig.tracer.TotalProgress(a)) /
                             static_cast<double>(rig.tracer.TotalProgress(b));
  std::cout << "\nOverall ratio (paper: 2.01 : 1): "
            << FormatDouble(total_ratio, 2) << " : 1\n"
            << "Window ratio mean " << FormatDouble(ratio_stat.mean(), 2)
            << ", stddev " << FormatDouble(ratio_stat.stddev(), 2) << ", range ["
            << FormatDouble(ratio_stat.min(), 2) << ", "
            << FormatDouble(ratio_stat.max(), 2) << "]\n";
  report.Metric("overall_ratio", total_ratio);
  report.Metric("window_ratio_mean", ratio_stat.mean());
  report.Metric("window_ratio_stddev", ratio_stat.stddev());
  report.Write();
  WriteTrace(flags, trace.get());
  ts.Write();
  return 0;
}

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) { return lottery::Main(argc, argv); }
