// Figure 11 + Section 6.1: Mutex Waiting Times.
//
// Eight threads compete for one lottery-scheduled mutex; each repeatedly
// acquires it, holds 50 ms, releases, computes 50 ms. The threads form two
// groups of four with a 2:1 ticket allocation. Over a two-minute run the
// paper measured 763 vs 423 acquisitions (1.80:1) and mean waiting times of
// 450 ms vs 948 ms (1:2.11), with waiting-time histograms per group.

#include <memory>

#include "bench/bench_util.h"
#include "src/obs/streaming.h"
#include "src/sim/sync.h"
#include "src/util/stats.h"
#include "src/workloads/mutex_workload.h"

namespace lottery {
namespace {

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  const int64_t seconds = flags.GetInt("seconds", 120);
  BenchReport report(flags, "fig11_mutex_waiting");
  report.Meta("seconds", seconds);

  PrintHeader("Figure 11",
              "Lottery-scheduled mutex: 8 threads, groups A:B = 2:1",
              "acquisitions ~1.8:1 (A:B); mean waits ~1:2.1 (A:B)");

  const auto trace = MakeTrace(flags);  // --trace=PATH (etrace binary)
  LotteryRig rig(seed, /*quantum_ms=*/100, SimDuration::Seconds(1),
                 trace.get());
  SimMutex mutex(rig.kernel.get(), "m");
  MutexTask::Options mopts;
  mopts.hold = SimDuration::Millis(50);
  mopts.compute = SimDuration::Millis(50);
  // +/-10% phase jitter models real-machine timing noise; without it the
  // deterministic simulator aligns every 100 ms cycle with the 100 ms
  // quantum and the mutex is never contended (see DESIGN.md).
  mopts.jitter = 0.1;

  std::vector<MutexTask*> group_a, group_b;
  std::vector<std::string> a_names, b_names;
  for (int i = 0; i < 4; ++i) {
    mopts.jitter_seed = seed + static_cast<uint32_t>(2 * i);
    auto a = std::make_unique<MutexTask>(&mutex, mopts);
    group_a.push_back(a.get());
    a_names.push_back("A" + std::to_string(i));
    const ThreadId ta = rig.kernel->Spawn(a_names.back(), std::move(a));
    rig.scheduler->FundThread(ta, rig.scheduler->table().base(), 2000);

    mopts.jitter_seed = seed + static_cast<uint32_t>(2 * i + 1);
    auto b = std::make_unique<MutexTask>(&mutex, mopts);
    group_b.push_back(b.get());
    b_names.push_back("B" + std::to_string(i));
    const ThreadId tb = rig.kernel->Spawn(b_names.back(), std::move(b));
    rig.scheduler->FundThread(tb, rig.scheduler->table().base(), 1000);
  }

  rig.kernel->RunFor(SimDuration::Seconds(seconds));

  auto collect = [&](const std::vector<std::string>& names, Histogram* hist,
                     obs::StreamingStats* stat) {
    for (const std::string& name : names) {
      for (const auto& sample : rig.tracer.Samples("mutex_wait:" + name)) {
        hist->Add(sample.value);
        stat->Add(sample.value);
      }
    }
  };
  Histogram hist_a(0.0, 4.0, 20), hist_b(0.0, 4.0, 20);
  obs::StreamingStats wait_a, wait_b;
  collect(a_names, &hist_a, &wait_a);
  collect(b_names, &hist_b, &wait_b);

  int64_t acq_a = 0, acq_b = 0;
  for (const auto* t : group_a) {
    acq_a += t->cycles();
  }
  for (const auto* t : group_b) {
    acq_b += t->cycles();
  }

  TextTable table({"group", "tickets", "acquisitions", "mean wait (s)",
                   "stddev (s)"});
  table.AddRow({"A", "2000 x4", std::to_string(acq_a),
                FormatDouble(wait_a.mean(), 3),
                FormatDouble(wait_a.sample_stddev(), 3)});
  table.AddRow({"B", "1000 x4", std::to_string(acq_b),
                FormatDouble(wait_b.mean(), 3),
                FormatDouble(wait_b.sample_stddev(), 3)});
  table.Print(std::cout);

  std::cout << "\nAcquisition ratio A:B = "
            << FormatDouble(static_cast<double>(acq_a) /
                                static_cast<double>(acq_b),
                            2)
            << " : 1 (paper: 1.80 : 1)\n"
            << "Waiting time ratio A:B = 1 : "
            << FormatDouble(wait_b.mean() / wait_a.mean(), 2)
            << " (paper: 1 : 2.11)\n\n"
            << "Group A waiting-time histogram (s):\n"
            << hist_a.ToAscii(40) << "\nGroup B waiting-time histogram (s):\n"
            << hist_b.ToAscii(40);
  report.Metric("group_a_acquisitions", acq_a);
  report.Metric("group_b_acquisitions", acq_b);
  report.Metric("acquisition_ratio_a_to_b",
                static_cast<double>(acq_a) / static_cast<double>(acq_b));
  report.Metric("group_a_mean_wait_s", wait_a.mean());
  report.Metric("group_b_mean_wait_s", wait_b.mean());
  report.Metric("wait_ratio_b_to_a", wait_b.mean() / wait_a.mean());
  report.Write();
  WriteTrace(flags, trace.get());
  return 0;
}

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) { return lottery::Main(argc, argv); }
