// The benchmark's three workloads, built through the public Kernel /
// Scheduler / ThreadBody API in the shapes the repository's own benches use:
//
//   paper_mix   1 CPU, list backend, 10 ms quantum, 26 threads: the fig7
//               RPC clients and transfer-funded workers, the fig11 mutex
//               groups, the fig6 inflating Monte-Carlo tasks, a fig4/fig9
//               compute ladder in two user currencies, and interactive
//               threads that earn compensation tickets. A sim::Tracer and a
//               ts::Sampler are attached as the figure benches attach them.
//   population  1 CPU, tree backend with default batching, 1 ms quantum,
//               100k threads 3:1 compute:interactive in 8 base-funded ticket
//               classes (bench_scale Part B), no recorder.
//   smp_churn   16 CPUs on smp::SmpScheduler, a tree per CPU, 5 ms quantum,
//               4000 base-funded threads, half compute and half interactive
//               with 1-3 ms bursts and 5-17 ms sleeps (bench_smp Part B).
//
// Every input (spawn order of classes and kinds, burst and sleep lengths on
// the large populations, jitter and sampler seeds, the scheduler seed) is
// derived from the --seed value; the mix of classes and kinds is fixed.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/spans.h"
#include "src/core/lottery_scheduler.h"
#include "src/obs/registry.h"
#include "src/obs/timeseries/sampler.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sim/kernel.h"
#include "src/sim/rpc.h"
#include "src/sim/sync.h"
#include "src/sim/trace.h"

namespace perfbench {

struct WorkloadConfig {
  std::string name;
  std::string backend;  // run-queue backend (per CPU under SMP)
  int cpus = 1;
  SimDuration quantum;
  // Simulated time advanced per host-timed step.
  SimDuration step;
  // Simulated time run after set-up and before the measured window, so the
  // window starts once per-step cost has settled.
  SimDuration warmup;
  // Simulated span of the window that is checked (digest, conservation,
  // share error, peak RSS) and that the traced run replays. Fixed, so those
  // outputs do not depend on host speed.
  SimDuration checkpoint;
  // Set-ups timed per untraced run; setup_s is the fastest.
  int setup_reps = 1;
};

// Throws std::invalid_argument for an unknown name.
WorkloadConfig ConfigFor(const std::string& name);

// Threads whose delivered CPU is compared against their funded share.
struct FundingClass {
  double funding = 0.0;  // base-ticket value of the class
  std::vector<ThreadId> tids;
};

// One built instance of a workload: registry, scheduler, kernel, services
// and spawned, funded threads. A non-null recorder builds the traced
// variant; the simulated run is identical either way.
class World {
 public:
  World(const WorkloadConfig& config, uint32_t seed, SpanRecorder* spans);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  lottery::Kernel& kernel() { return *kernel_; }
  lottery::obs::Registry& metrics() { return registry_; }
  const std::vector<ThreadId>& threads() const { return threads_; }
  const std::vector<FundingClass>& classes() const { return classes_; }
  // Counters that must advance over the measured window: each names a
  // mechanism this workload exists to exercise.
  const std::vector<std::string>& liveness_counters() const {
    return liveness_;
  }

 private:
  ThreadId Spawn(const std::string& name,
                 std::unique_ptr<lottery::ThreadBody> body, Op kind);
  lottery::Ticket* Fund(ThreadId tid, lottery::Currency* denomination,
                        int64_t amount);
  void BuildPaperMix(lottery::SplitMix64& seeds);
  void BuildPopulation(lottery::FastRand& inputs);
  void BuildSmpChurn(lottery::FastRand& inputs);

  // Declaration order is teardown order reversed: services and the sampler
  // detach from a live kernel, and the kernel goes before its scheduler.
  lottery::obs::Registry registry_;
  SpanRecorder* spans_;
  std::unique_ptr<lottery::Tracer> tracer_;
  std::unique_ptr<lottery::Scheduler> scheduler_;
  lottery::LotteryScheduler* lottery_ = nullptr;
  lottery::smp::SmpScheduler* smp_ = nullptr;
  std::unique_ptr<lottery::Kernel> kernel_;
  std::unique_ptr<lottery::RpcPort> port_;
  std::unique_ptr<lottery::SimMutex> mutex_;
  std::unique_ptr<lottery::ts::Sampler> sampler_;
  std::unique_ptr<TracedSampleHook> sample_hook_;
  std::vector<ThreadId> threads_;
  std::vector<FundingClass> classes_;
  std::vector<std::string> liveness_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
