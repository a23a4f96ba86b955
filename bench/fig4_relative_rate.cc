// Figure 4: Relative Rate Accuracy.
//
// Two tasks execute the Dhrystone stand-in for 60 seconds with relative
// ticket allocations 1:1 through 10:1, three runs each; the observed
// iteration ratio is plotted against the allocated ratio. The paper reports
// all points close to the ideal diagonal, with larger variance at larger
// ratios (e.g. one 10:1 run came out 13.42:1) and a 20:1 three-minute run
// averaging 19.08:1.

#include "bench/bench_util.h"
#include "src/obs/streaming.h"

namespace lottery {
namespace {

double RunOnce(uint32_t seed, int64_t ratio, int64_t seconds) {
  LotteryRig rig(seed);
  const ThreadId a = rig.SpawnCompute(
      "a", rig.scheduler->table().base(), 100 * ratio);
  const ThreadId b =
      rig.SpawnCompute("b", rig.scheduler->table().base(), 100);
  rig.kernel->RunFor(SimDuration::Seconds(seconds));
  return static_cast<double>(rig.tracer.TotalProgress(a)) /
         static_cast<double>(rig.tracer.TotalProgress(b));
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  const int64_t seconds = flags.GetInt("seconds", 60);
  BenchReport report(flags, "fig4_relative_rate");
  report.Meta("seconds", seconds);

  PrintHeader("Figure 4", "Relative rate accuracy (2 Dhrystone tasks, 60 s)",
              "observed ratio tracks allocated ratio; variance grows with "
              "the ratio");

  TextTable table({"allocated", "run 1", "run 2", "run 3", "mean", "error %"});
  for (int64_t ratio = 1; ratio <= 10; ++ratio) {
    obs::StreamingStats stat;
    std::vector<std::string> row = {FormatDouble(static_cast<double>(ratio), 0) +
                                    " : 1"};
    for (uint32_t run = 0; run < 3; ++run) {
      const double observed =
          RunOnce(seed + 100 * run + static_cast<uint32_t>(ratio), ratio,
                  seconds);
      stat.Add(observed);
      row.push_back(FormatDouble(observed, 2));
    }
    row.push_back(FormatDouble(stat.mean(), 2));
    row.push_back(FormatDouble(
        100.0 * (stat.mean() - static_cast<double>(ratio)) /
            static_cast<double>(ratio),
        1));
    table.AddRow(row);
    report.Metric("observed_ratio_" + std::to_string(ratio) + "to1",
                  stat.mean());
  }
  table.Print(std::cout);

  // The paper's long-horizon check: 20:1 over three minutes.
  const double long_run = RunOnce(seed + 7, 20, 180);
  std::cout << "\n20 : 1 allocation over 180 s (paper: 19.08 : 1): "
            << FormatDouble(long_run, 2) << " : 1\n";
  report.Metric("observed_ratio_20to1_180s", long_run);
  report.Write();
  return 0;
}

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) { return lottery::Main(argc, argv); }
