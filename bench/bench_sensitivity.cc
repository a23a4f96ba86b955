// Seed sensitivity of the headline reproduction claims.
//
// Every experiment in this repository is deterministic given a seed; this
// harness reruns the headline metrics over many seeds and reports mean,
// standard deviation, and range — the evidence that the EXPERIMENTS.md
// numbers are typical draws, not cherry-picked ones.
//
//   * Figure 4/5 core: 2:1 Dhrystone throughput ratio over 60 s.
//   * Figure 7 core: remaining-pair (3:1) query throughput ratio.
//   * Figure 11 core: mutex acquisition ratio for 2:1 groups.
//   * Section 6.2: empirical inverse-lottery loss frequency vs formula.

#include <memory>

#include "bench/bench_util.h"
#include "src/core/inverse_lottery.h"
#include "src/obs/streaming.h"
#include "src/sim/rpc.h"
#include "src/sim/sync.h"
#include "src/workloads/mutex_workload.h"
#include "src/workloads/query_server.h"

namespace lottery {
namespace {

double Fig4Ratio(uint32_t seed) {
  LotteryRig rig(seed);
  const ThreadId a = rig.SpawnCompute("a", rig.scheduler->table().base(), 200);
  const ThreadId b = rig.SpawnCompute("b", rig.scheduler->table().base(), 100);
  rig.kernel->RunFor(SimDuration::Seconds(60));
  return static_cast<double>(rig.tracer.TotalProgress(a)) /
         static_cast<double>(rig.tracer.TotalProgress(b));
}

double Fig7PairRatio(uint32_t seed) {
  LotteryRig rig(seed);
  RpcPort port(rig.kernel.get(), "db");
  QueryClient::Options copts;
  copts.query_cost = SimDuration::Millis(2300);
  copts.prepare_cost = SimDuration::Millis(10);
  std::vector<QueryClient*> clients;
  const int64_t funds[] = {300, 100};
  for (int i = 0; i < 2; ++i) {
    auto c = std::make_unique<QueryClient>(&port, copts);
    clients.push_back(c.get());
    const ThreadId tid =
        rig.kernel->Spawn("client" + std::to_string(i), std::move(c));
    rig.scheduler->FundThread(tid, rig.scheduler->table().base(), funds[i]);
  }
  for (int i = 0; i < 2; ++i) {
    port.RegisterServer(rig.kernel->Spawn(
        "worker" + std::to_string(i), std::make_unique<QueryWorker>(&port)));
  }
  rig.kernel->RunFor(SimDuration::Seconds(400));
  return static_cast<double>(clients[0]->completed()) /
         static_cast<double>(clients[1]->completed());
}

double Fig11AcquisitionRatio(uint32_t seed) {
  LotteryRig rig(seed);
  SimMutex mutex(rig.kernel.get(), "m");
  MutexTask::Options mopts;
  mopts.hold = SimDuration::Millis(50);
  mopts.compute = SimDuration::Millis(50);
  mopts.jitter = 0.1;
  std::vector<MutexTask*> group_a, group_b;
  for (int i = 0; i < 4; ++i) {
    mopts.jitter_seed = seed + static_cast<uint32_t>(2 * i);
    auto a = std::make_unique<MutexTask>(&mutex, mopts);
    group_a.push_back(a.get());
    rig.scheduler->FundThread(
        rig.kernel->Spawn("A" + std::to_string(i), std::move(a)),
        rig.scheduler->table().base(), 2000);
    mopts.jitter_seed = seed + static_cast<uint32_t>(2 * i + 1);
    auto b = std::make_unique<MutexTask>(&mutex, mopts);
    group_b.push_back(b.get());
    rig.scheduler->FundThread(
        rig.kernel->Spawn("B" + std::to_string(i), std::move(b)),
        rig.scheduler->table().base(), 1000);
  }
  rig.kernel->RunFor(SimDuration::Seconds(120));
  int64_t acq_a = 0, acq_b = 0;
  for (const auto* t : group_a) {
    acq_a += t->cycles();
  }
  for (const auto* t : group_b) {
    acq_b += t->cycles();
  }
  return static_cast<double>(acq_a) / static_cast<double>(acq_b);
}

double InverseLossFrequency(uint32_t seed) {
  FastRand rng(seed);
  const std::vector<uint64_t> weights = {10, 5, 3, 2};
  int losses0 = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    if (DrawInverse(weights, rng).value() == 0) {
      ++losses0;
    }
  }
  return static_cast<double>(losses0) / kDraws;
}

void Report(TextTable& table, BenchReport* report, const std::string& key,
            const std::string& metric, double target,
            const std::vector<double>& values) {
  obs::StreamingStats stat;
  for (const double v : values) {
    stat.Add(v);
  }
  table.AddRow({metric, FormatDouble(target, 3), FormatDouble(stat.mean(), 3),
                FormatDouble(stat.sample_stddev(), 3),
                FormatDouble(stat.min(), 3), FormatDouble(stat.max(), 3)});
  report->Metric(key + "_mean", stat.mean());
  report->Metric(key + "_stddev", stat.sample_stddev());
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const int64_t runs = flags.GetInt("runs", 10);
  BenchReport report(flags, "bench_sensitivity");
  report.Meta("runs", runs);

  PrintHeader("Sensitivity", "Headline metrics across seeds",
              "means sit on the targets; spreads are binomial-sized");

  TextTable table({"metric", "target", "mean", "stddev", "min", "max"});
  std::vector<double> fig4, fig7, fig11, inverse;
  for (int64_t run = 0; run < runs; ++run) {
    const auto seed = static_cast<uint32_t>(1000 + run * 17);
    fig4.push_back(Fig4Ratio(seed));
    fig7.push_back(Fig7PairRatio(seed));
    fig11.push_back(Fig11AcquisitionRatio(seed));
    inverse.push_back(InverseLossFrequency(seed));
  }
  Report(table, &report, "fig4_ratio", "fig4 2:1 throughput ratio", 2.0,
         fig4);
  Report(table, &report, "fig7_ratio", "fig7 3:1 query ratio", 3.0, fig7);
  Report(table, &report, "fig11_ratio",
         "fig11 2:1 acquisition ratio (paper 1.80)", 1.8, fig11);
  Report(table, &report, "inverse_loss_freq",
         "sec6.2 loss freq, t=10 of 20, n=4", 1.0 / 6.0, inverse);
  table.Print(std::cout);
  std::cout << "\n(" << runs << " independently seeded runs per metric; "
            << "rerun with --runs=N for more)\n";
  report.Write();
  return 0;
}

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) { return lottery::Main(argc, argv); }
