// Extension bench: lottery scheduling across multiple CPUs.
//
// Section 4.2 notes the tree of partial ticket sums "can also be used as
// the basis of a distributed lottery scheduler". This harness measures both
// halves of that story:
//
// Part A — one shared lottery run queue feeding 1..8 CPUs: (a) aggregate
// delivered CPU (work conservation), (b) fidelity of proportional shares of
// the aggregate capacity, and (c) the host-side decision cost per dispatch
// for the list- vs tree-backed run queue as the dispatch rate scales.
//
// Part B — the partitioned smp::SmpScheduler at {4, 16, 64} CPUs: per-CPU
// private lotteries with ticket-weighted stealing must recover *global*
// proportional share. Reported under schema-stable keys share_err_c{4,16,64}
// (mean per-thread share error over the post-warmup window, in percent)
// plus the machine-wide steals / migrations counts. `--check` turns the
// bench into a gate: it exits nonzero if any partitioned cell's mean share
// error exceeds 5%, which CI runs as the smp-gate leg.

#include <chrono>
#include <memory>

#include "bench/bench_util.h"
#include "src/sched/smp/smp_scheduler.h"

namespace lottery {
namespace {

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  const int64_t seconds = flags.GetInt("seconds", 200);
  BenchReport report(flags, "bench_smp");
  report.Meta("seconds", seconds);

  PrintHeader("Extension (SMP)", "One lottery run queue, 1-8 CPUs",
              "aggregate capacity fully used; shares of the aggregate follow "
              "funding; tree backend holds its O(lg n) cost advantage");

  TextTable table({"cpus", "backend", "delivered CPU (s)", "mean share err %",
                   "host ns/dispatch", "p50 sync ns", "p50 draw ns"});
  for (const int cpus : {1, 2, 4, 8}) {
    for (const RunQueueBackend backend :
         {RunQueueBackend::kList, RunQueueBackend::kTree}) {
      // Per-config registry: counters and the sync/draw split histograms
      // restart from zero for every (cpus, backend) cell instead of
      // accumulating in the process-wide default.
      obs::Registry reg;
      LotteryScheduler::Options sopts;
      sopts.seed = seed;
      sopts.backend = backend;
      sopts.metrics = &reg;
      LotteryScheduler sched(sopts);
      Kernel::Options kopts;
      kopts.quantum = SimDuration::Millis(100);
      kopts.num_cpus = cpus;
      Kernel kernel(&sched, kopts);

      // 24 threads with funding 50..280 (no thread's share exceeds one CPU
      // for any cpus value used here, and even the smallest share is large
      // enough for its binomial noise to stay modest).
      std::vector<ThreadId> tids;
      int64_t total_funding = 0;
      for (int i = 0; i < 24; ++i) {
        const int64_t amount = 50 + 10 * i;
        const ThreadId tid = kernel.Spawn(
            "t" + std::to_string(i), std::make_unique<ComputeTask>());
        sched.FundThread(tid, sched.table().base(), amount);
        total_funding += amount;
        tids.push_back(tid);
      }

      const auto start = std::chrono::steady_clock::now();
      kernel.RunFor(SimDuration::Seconds(seconds));
      const auto stop = std::chrono::steady_clock::now();

      SimDuration delivered{};
      uint64_t dispatches = 0;
      double err_sum = 0.0;
      const double capacity =
          static_cast<double>(seconds) * static_cast<double>(cpus);
      for (size_t i = 0; i < tids.size(); ++i) {
        delivered += kernel.CpuTime(tids[i]);
        dispatches += kernel.Dispatches(tids[i]);
        const double expect =
            capacity * static_cast<double>(50 + 10 * static_cast<int>(i)) /
            static_cast<double>(total_funding);
        err_sum += std::abs(kernel.CpuTime(tids[i]).ToSecondsF() - expect) /
                   expect;
      }
      const double max_err = err_sum / static_cast<double>(tids.size());
      const double wall_ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
              .count());
      // Tree dispatches sample a wall-clock split of weight-sync vs the
      // draw itself (lottery.sync_ns / lottery.tree_draw_ns); the list
      // backend has no sync phase, so those cells stay empty.
      const obs::LatencyHistogram* sync_hist =
          reg.FindHistogram("lottery.sync_ns");
      const obs::LatencyHistogram* draw_hist =
          reg.FindHistogram("lottery.tree_draw_ns");
      const bool is_tree = backend == RunQueueBackend::kTree;
      const bool have_split = is_tree && sync_hist != nullptr &&
                              sync_hist->count() > 0 &&
                              draw_hist != nullptr && draw_hist->count() > 0;
      table.AddRow(
          {std::to_string(cpus), is_tree ? "tree" : "list",
           FormatDouble(delivered.ToSecondsF(), 1),
           FormatDouble(100.0 * max_err, 1),
           FormatDouble(wall_ns / static_cast<double>(dispatches), 0),
           have_split ? FormatDouble(sync_hist->Percentile(0.50), 0) : "-",
           have_split ? FormatDouble(draw_hist->Percentile(0.50), 0) : "-"});
      const std::string key =
          std::string(is_tree ? "tree" : "list") + "_" +
          std::to_string(cpus) + "cpu";
      const auto counter_of = [&reg](const char* name) {
        const obs::Counter* c = reg.FindCounter(name);
        return c == nullptr ? uint64_t{0} : c->value();
      };
      report.Metric(key + "_delivered_s", delivered.ToSecondsF());
      report.Metric(key + "_mean_share_err_pct", 100.0 * max_err);
      report.Metric(key + "_host_ns_per_dispatch",
                    wall_ns / static_cast<double>(dispatches));
      report.Metric(key + "_draws", counter_of("lottery.draws"));
      const obs::LatencyHistogram* cost =
          reg.FindHistogram("lottery.draw_cost");
      if (cost != nullptr && cost->count() > 0) {
        report.Metric(key + "_draw_cost_p50", cost->Percentile(0.50));
        report.Metric(key + "_draw_cost_p99", cost->Percentile(0.99));
      }
      if (is_tree) {
        report.Metric(key + "_full_syncs", counter_of("tree.full_syncs"));
        report.Metric(key + "_leaf_updates", counter_of("tree.leaf_updates"));
      }
      if (have_split) {
        report.Metric(key + "_sync_ns_p50", sync_hist->Percentile(0.50));
        report.Metric(key + "_sync_ns_p99", sync_hist->Percentile(0.99));
        report.Metric(key + "_tree_draw_ns_p50", draw_hist->Percentile(0.50));
        report.Metric(key + "_tree_draw_ns_p99", draw_hist->Percentile(0.99));
      }
    }
  }
  table.Print(std::cout);
  std::cout << "\n(delivered CPU == cpus x " << seconds
            << " s in every row: the shared lottery queue is work-"
               "conserving; per-thread shares track funding within noise)\n";

  // --- Part B: partitioned per-CPU lotteries with ticket-weighted stealing.
  //
  // Four compute-bound threads per CPU on the same cyclic 50..280 funding
  // ladder as Part A, so adjacent round-robin spawns land different weights
  // and the per-CPU ticket totals start skewed. Shares are measured over
  // the post-warmup window only: global proportionality is a property of
  // the balanced partition, not of the convergence transient.
  std::cout << "\nPart B: partitioned per-CPU lotteries (smp::SmpScheduler, "
               "tree backend, 5 ms quantum)\n";
  TextTable smp_table({"cpus", "threads", "mean share err %", "steals",
                       "migrations", "cost vetoes", "host ns/dispatch"});
  const SimDuration warmup =
      SimDuration::Seconds(seconds >= 4 ? 1 : 0);
  const SimDuration window = SimDuration::Seconds(seconds) - warmup;
  bool check_ok = true;
  uint64_t total_steals = 0;
  uint64_t total_migrations = 0;
  for (const int cpus : {4, 16, 64}) {
    // Private registry: Part B must not disturb the process-wide counters
    // that Part A's cells left in the default registry (and the JSON dump).
    obs::Registry reg;
    smp::SmpScheduler::Options so;
    so.num_cpus = cpus;
    so.seed = seed;
    so.cpu.backend = RunQueueBackend::kTree;
    so.balance_period = 4;
    so.metrics = &reg;
    smp::SmpScheduler sched(so);
    Kernel::Options kopts;
    kopts.quantum = SimDuration::Millis(5);
    kopts.num_cpus = cpus;
    kopts.metrics = &reg;
    Kernel kernel(&sched, kopts);

    std::vector<ThreadId> tids;
    std::vector<int64_t> amounts;
    int64_t total_funding = 0;
    for (int i = 0; i < 4 * cpus; ++i) {
      const int64_t amount = 50 + 10 * (i % 24);
      const ThreadId tid = kernel.Spawn("p" + std::to_string(i),
                                        std::make_unique<ComputeTask>());
      sched.FundThread(tid, amount);
      tids.push_back(tid);
      amounts.push_back(amount);
      total_funding += amount;
    }

    // --timeseries=PATH records the 4-CPU partitioned cell: per-CPU
    // utilization/queue depth/steal activity plus a fairness-lag audit of
    // the first eight threads (one light and one heavy per CPU).
    TimeseriesRecorder ts(flags, "bench_smp", &kernel);
    if (cpus == 4 && ts.enabled()) {
      ts.AttachScheduler(&sched);
      for (size_t i = 0; i < 8 && i < tids.size(); ++i) {
        ts.Track(tids[i], "p" + std::to_string(i));
      }
    } else {
      kernel.SetSampler(nullptr);
    }

    const auto start = std::chrono::steady_clock::now();
    kernel.RunFor(warmup);
    std::vector<SimDuration> at_warmup;
    for (const ThreadId tid : tids) {
      at_warmup.push_back(kernel.CpuTime(tid));
    }
    kernel.RunFor(window);
    const auto stop = std::chrono::steady_clock::now();
    sched.CheckIntegrity();

    // Error against the realized aggregate, so a stray idle tick cannot
    // masquerade as share error: each thread's expectation is its ticket
    // fraction of the CPU time actually delivered in the window.
    SimDuration delivered{};
    uint64_t dispatches = 0;
    for (size_t i = 0; i < tids.size(); ++i) {
      delivered += kernel.CpuTime(tids[i]) - at_warmup[i];
      dispatches += kernel.Dispatches(tids[i]);
    }
    double err_sum = 0.0;
    for (size_t i = 0; i < tids.size(); ++i) {
      const double expect = delivered.ToSecondsF() *
                            static_cast<double>(amounts[i]) /
                            static_cast<double>(total_funding);
      const double got = (kernel.CpuTime(tids[i]) - at_warmup[i]).ToSecondsF();
      err_sum += std::abs(got - expect) / expect;
    }
    const double mean_err_pct =
        100.0 * err_sum / static_cast<double>(tids.size());
    const double wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count());

    smp_table.AddRow({std::to_string(cpus), std::to_string(4 * cpus),
                      FormatDouble(mean_err_pct, 2),
                      std::to_string(sched.steals()),
                      std::to_string(sched.migrations()),
                      std::to_string(sched.cost_vetoes()),
                      FormatDouble(wall_ns / static_cast<double>(dispatches),
                                   0)});
    report.Metric("share_err_c" + std::to_string(cpus), mean_err_pct);
    if (cpus == 4) {
      ts.Write();
    }
    total_steals += sched.steals();
    total_migrations += sched.migrations();
    if (mean_err_pct > 5.0) {
      check_ok = false;
      std::cout << "SMP-GATE FAIL: " << cpus << " cpus mean share err "
                << FormatDouble(mean_err_pct, 2) << "% > 5%\n";
    }
  }
  smp_table.Print(std::cout);
  std::cout << "\n(partitioned shares are global: per-CPU lotteries plus "
               "ticket-weighted stealing keep every thread within a few "
               "percent of its machine-wide entitlement)\n";
  report.Metric("steals", total_steals);
  report.Metric("migrations", total_migrations);

  report.Write();
  if (flags.GetBool("check", false) && !check_ok) {
    std::cout << "smp-gate: FAILED\n";
    return 1;
  }
  if (flags.GetBool("check", false)) {
    std::cout << "smp-gate: ok (all partitioned cells <= 5% mean share "
                 "error)\n";
  }
  return 0;
}

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) { return lottery::Main(argc, argv); }
