// Section 5.6: System Overhead.
//
// The paper compared its (unoptimized) lottery kernel against unmodified
// Mach timesharing: three Dhrystone tasks for 200 s (lottery 2.7% slower),
// eight tasks (0.8% slower), and a five-client database run (1.7% faster);
// differences were comparable to run-to-run noise. The kernels are not
// available here, so this table reports the analogous quantities for our
// scheduler implementations on identical workloads:
//   * host-time cost per scheduling decision (the overhead the paper's
//     percentages come from), and
//   * simulated throughput delivered to the workload (identical across
//     policies, since the sim charges no scheduler overhead to tasks).

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/sched/decay_usage.h"
#include "src/sched/round_robin.h"
#include "src/sched/stride.h"

namespace lottery {
namespace {

struct Result {
  double ns_per_dispatch;
  int64_t total_iterations;
  uint64_t dispatches;
};

Result RunWorkload(Scheduler* sched, LotteryScheduler* lottery, int tasks,
                   int64_t seconds) {
  Tracer tracer(SimDuration::Seconds(10));
  Kernel::Options kopts;
  kopts.quantum = SimDuration::Millis(100);
  Kernel kernel(sched, kopts, &tracer);
  std::vector<ThreadId> tids;
  for (int i = 0; i < tasks; ++i) {
    const ThreadId tid =
        kernel.Spawn("t" + std::to_string(i), std::make_unique<ComputeTask>());
    if (lottery != nullptr) {
      lottery->FundThread(tid, lottery->table().base(), 100);
    }
    tids.push_back(tid);
  }
  const auto start = std::chrono::steady_clock::now();
  kernel.RunFor(SimDuration::Seconds(seconds));
  const auto stop = std::chrono::steady_clock::now();

  Result result{};
  result.dispatches = 0;
  result.total_iterations = 0;
  for (const ThreadId tid : tids) {
    result.dispatches += kernel.Dispatches(tid);
    result.total_iterations += tracer.TotalProgress(tid);
  }
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
  result.ns_per_dispatch = wall_ns / static_cast<double>(result.dispatches);
  return result;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto seed = static_cast<uint32_t>(flags.GetInt("seed", 42));
  const int64_t seconds = flags.GetInt("seconds", 200);
  BenchReport report(flags, "tab_overhead");
  report.Meta("seconds", seconds);

  PrintHeader("Section 5.6 (Table)", "Scheduling overhead across policies",
              "lottery overhead comparable to timesharing: the paper saw "
              "|delta| <= 2.7% on identical workloads");

  // ns per whole dispatch and per isolated decision, by (count, policy).
  std::map<std::pair<int, std::string>, double> dispatch_ns;
  std::map<std::pair<int, std::string>, double> decision_ns;

  TextTable table({"policy", "tasks", "host ns/dispatch", "dispatches",
                   "sim iterations"});
  for (const int tasks : {3, 8}) {
    for (const char* policy :
         {"lottery", "lottery-tree", "decay-usage", "stride", "round-robin"}) {
      std::unique_ptr<Scheduler> sched;
      LotteryScheduler* lottery = nullptr;
      if (std::string(policy).rfind("lottery", 0) == 0) {
        LotteryScheduler::Options lopts;
        lopts.seed = seed;
        if (std::string(policy) == "lottery-tree") {
          lopts.backend = RunQueueBackend::kTree;
        }
        auto ls = std::make_unique<LotteryScheduler>(lopts);
        lottery = ls.get();
        sched = std::move(ls);
      } else if (std::string(policy) == "decay-usage") {
        sched = std::make_unique<DecayUsageScheduler>();
      } else if (std::string(policy) == "stride") {
        sched = std::make_unique<StrideScheduler>();
      } else {
        sched = std::make_unique<RoundRobinScheduler>();
      }
      const Result r = RunWorkload(sched.get(), lottery, tasks, seconds);
      dispatch_ns[{tasks, policy}] = r.ns_per_dispatch;
      table.AddRow({policy, std::to_string(tasks),
                    FormatDouble(r.ns_per_dispatch, 0),
                    std::to_string(r.dispatches),
                    std::to_string(r.total_iterations)});
      report.Metric(std::string(policy) + "_" + std::to_string(tasks) +
                        "tasks_ns_per_dispatch",
                    r.ns_per_dispatch);
    }
  }
  table.Print(std::cout);
  std::cout << "\nNote: identical 'sim iterations' per task count shows the "
               "policies deliver the same aggregate throughput. 'host "
               "ns/dispatch' is the whole simulated dispatch (event queue, "
               "kernel, policy, workload body); workload progress costs "
               "O(1) per slice, so it no longer measures progress "
               "bookkeeping. Each cell times only seconds / quantum "
               "dispatches. The isolated decision cost (OnReady + PickNext + "
               "OnQuantumEnd, no kernel or workload) is:\n\n";

  TextTable pure({"policy", "threads", "ns/decision"});
  for (const int threads : {3, 8, 50}) {
    for (const char* policy :
         {"lottery", "lottery-tree", "decay-usage", "stride", "round-robin"}) {
      std::unique_ptr<Scheduler> sched;
      LotteryScheduler* lottery = nullptr;
      if (std::string(policy).rfind("lottery", 0) == 0) {
        LotteryScheduler::Options lopts;
        lopts.seed = seed;
        if (std::string(policy) == "lottery-tree") {
          lopts.backend = RunQueueBackend::kTree;
        }
        auto ls = std::make_unique<LotteryScheduler>(lopts);
        lottery = ls.get();
        sched = std::move(ls);
      } else if (std::string(policy) == "decay-usage") {
        sched = std::make_unique<DecayUsageScheduler>();
      } else if (std::string(policy) == "stride") {
        sched = std::make_unique<StrideScheduler>();
      } else {
        sched = std::make_unique<RoundRobinScheduler>();
      }
      const SimTime t0 = SimTime::Zero();
      for (ThreadId id = 1; id <= static_cast<ThreadId>(threads); ++id) {
        sched->AddThread(id, t0);
        if (lottery != nullptr) {
          lottery->FundThread(id, lottery->table().base(), 100);
        }
        sched->OnReady(id, t0);
      }
      constexpr int kRounds = 200000;
      const auto start = std::chrono::steady_clock::now();
      const SimDuration quantum = SimDuration::Millis(100);
      for (int i = 0; i < kRounds; ++i) {
        const ThreadId id = sched->PickNext(t0);
        sched->OnQuantumEnd(id, quantum, quantum, t0);
        sched->OnReady(id, t0);
      }
      const auto stop = std::chrono::steady_clock::now();
      const double ns =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(stop -
                                                                   start)
                  .count()) /
          kRounds;
      pure.AddRow({policy, std::to_string(threads), FormatDouble(ns, 0)});
      decision_ns[{threads, policy}] = ns;
      report.Metric(std::string(policy) + "_" + std::to_string(threads) +
                        "threads_ns_per_decision",
                    ns);
    }
  }
  pure.Print(std::cout);

  // The verdict follows the measured lottery (list) / decay-usage ratios.
  const auto ratio = [](auto& ns, int count) {
    return ns[{count, "lottery"}] / ns[{count, "decay-usage"}];
  };
  std::cout << "\nlottery (list) / decay-usage: whole dispatch";
  double worst = 0.0;
  for (const int tasks : {3, 8}) {
    const double r = ratio(dispatch_ns, tasks);
    worst = std::max(worst, r);
    std::cout << " " << FormatDouble(r, 2) << "x (" << tasks << " tasks)";
    report.Metric("lottery_over_decay_" + std::to_string(tasks) +
                      "tasks_dispatch_ratio",
                  r);
  }
  std::cout << "; isolated decision";
  for (const int threads : {3, 8, 50}) {
    const double r = ratio(decision_ns, threads);
    std::cout << " " << FormatDouble(r, 2) << "x (" << threads
              << " threads)";
    report.Metric("lottery_over_decay_" + std::to_string(threads) +
                      "threads_decision_ratio",
                  r);
  }
  std::cout << "\n";
  if (worst <= 1.027) {
    std::cout << "(within the paper's 2.7%: the prototype's parity with "
                 "Mach timesharing shows here)\n";
  } else {
    std::cout << "(the paper's prototype was within 2.7% of Mach "
                 "timesharing end-to-end; here a whole lottery dispatch "
                 "costs up to "
              << FormatDouble(worst, 2)
              << "x decay-usage's, so that parity does not show)\n";
  }
  report.Write();
  return 0;
}

}  // namespace
}  // namespace lottery

int main(int argc, char** argv) { return lottery::Main(argc, argv); }
