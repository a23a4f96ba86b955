// Tests for multi-CPU operation (the Section 4.2 "distributed lottery
// scheduler" direction): work conservation, per-thread single-CPU
// occupancy, proportional sharing of aggregate capacity, and the
// cross-CPU wakeup race (pending_wake) paths.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/lottery_scheduler.h"
#include "src/sched/round_robin.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sim/fault.h"
#include "src/sim/kernel.h"
#include "src/sim/sync.h"
#include "src/workloads/compute.h"
#include "src/workloads/mutex_workload.h"

namespace lottery {
namespace {

Kernel::Options SmpOpts(int cpus) {
  Kernel::Options o;
  o.quantum = SimDuration::Millis(100);
  o.num_cpus = cpus;
  return o;
}

TEST(Smp, RejectsZeroCpus) {
  RoundRobinScheduler sched;
  EXPECT_THROW(Kernel(&sched, SmpOpts(0)), std::invalid_argument);
}

TEST(Smp, TwoThreadsTwoCpusRunInParallel) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, SmpOpts(2));
  const ThreadId a = kernel.Spawn("a", std::make_unique<ComputeTask>());
  const ThreadId b = kernel.Spawn("b", std::make_unique<ComputeTask>());
  kernel.RunFor(SimDuration::Seconds(10));
  // Each thread has a whole CPU: full progress for both, zero idle.
  EXPECT_EQ(kernel.CpuTime(a), SimDuration::Seconds(10));
  EXPECT_EQ(kernel.CpuTime(b), SimDuration::Seconds(10));
  EXPECT_EQ(kernel.idle_time().nanos(), 0);
}

TEST(Smp, WorkConservationAcrossCpus) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, SmpOpts(4));
  std::vector<ThreadId> tids;
  for (int i = 0; i < 6; ++i) {
    tids.push_back(
        kernel.Spawn("t" + std::to_string(i), std::make_unique<ComputeTask>()));
  }
  kernel.RunFor(SimDuration::Seconds(60));
  SimDuration total{};
  for (const ThreadId tid : tids) {
    total += kernel.CpuTime(tid);
  }
  // 4 CPUs, always runnable work: used + idle == 4 * horizon.
  EXPECT_EQ((total + kernel.idle_time()).nanos(),
            SimDuration::Seconds(240).nanos());
  EXPECT_EQ(kernel.idle_time().nanos(), 0);
  // Per-CPU busy sums agree.
  SimDuration busy{};
  for (int cpu = 0; cpu < 4; ++cpu) {
    busy += kernel.CpuBusy(cpu);
  }
  EXPECT_EQ(busy.nanos(), total.nanos());
}

TEST(Smp, IdleCpusWhenUnderloaded) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, SmpOpts(3));
  kernel.Spawn("only", std::make_unique<ComputeTask>());
  kernel.RunFor(SimDuration::Seconds(10));
  // One busy CPU, two idle: 20 s of idle time accumulated.
  EXPECT_EQ(kernel.idle_time(), SimDuration::Seconds(20));
}

TEST(Smp, ThreadNeverExceedsOneCpu) {
  // A single thread on many CPUs can use at most wall-clock time.
  LotteryScheduler sched;
  Kernel kernel(&sched, SmpOpts(8));
  const ThreadId t = kernel.Spawn("solo", std::make_unique<ComputeTask>());
  sched.FundThread(t, sched.table().base(), 1000);
  kernel.RunFor(SimDuration::Seconds(30));
  EXPECT_EQ(kernel.CpuTime(t), SimDuration::Seconds(30));
}

TEST(Smp, RoundRobinSplitsEvenly) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, SmpOpts(2));
  std::vector<ThreadId> tids;
  for (int i = 0; i < 4; ++i) {
    tids.push_back(
        kernel.Spawn("t" + std::to_string(i), std::make_unique<ComputeTask>()));
  }
  kernel.RunFor(SimDuration::Seconds(40));
  for (const ThreadId tid : tids) {
    EXPECT_NEAR(kernel.CpuTime(tid).ToSecondsF(), 20.0, 0.2);
  }
}

TEST(Smp, LotterySharesAggregateCapacity) {
  LotteryScheduler::Options lopts;
  lopts.seed = 13;
  LotteryScheduler sched(lopts);
  Kernel kernel(&sched, SmpOpts(2));
  std::vector<ThreadId> tids;
  const int64_t funds[] = {300, 300, 200, 100, 100};
  for (int i = 0; i < 5; ++i) {
    const ThreadId tid = kernel.Spawn("t" + std::to_string(i),
                                      std::make_unique<ComputeTask>());
    sched.FundThread(tid, sched.table().base(), funds[i]);
    tids.push_back(tid);
  }
  kernel.RunFor(SimDuration::Seconds(600));
  // 1200 s of capacity split roughly by funding (no thread's fair share
  // exceeds one CPU here, so proportionality should hold).
  const double capacity = 1200.0;
  for (int i = 0; i < 5; ++i) {
    const double expect = capacity * static_cast<double>(funds[i]) / 1000.0;
    EXPECT_NEAR(kernel.CpuTime(tids[static_cast<size_t>(i)]).ToSecondsF(),
                expect, expect * 0.15)
        << "thread " << i;
  }
}

TEST(Smp, MutexAcrossCpusNoLostWakeups) {
  // Heavy mutex contention on 2 CPUs exercises the pending_wake path (a
  // release on one CPU waking a thread whose blocking slice is still in
  // flight on the other).
  LotteryScheduler::Options lopts;
  lopts.seed = 21;
  LotteryScheduler sched(lopts);
  Kernel kernel(&sched, SmpOpts(2));
  SimMutex mutex(&kernel, "m");
  MutexTask::Options mopts;
  mopts.hold = SimDuration::Millis(30);
  mopts.compute = SimDuration::Millis(30);
  mopts.jitter = 0.1;
  std::vector<MutexTask*> tasks;
  for (int i = 0; i < 4; ++i) {
    mopts.jitter_seed = static_cast<uint32_t>(50 + i);
    auto body = std::make_unique<MutexTask>(&mutex, mopts);
    tasks.push_back(body.get());
    const ThreadId tid =
        kernel.Spawn("m" + std::to_string(i), std::move(body));
    sched.FundThread(tid, sched.table().base(), 100);
  }
  kernel.RunFor(SimDuration::Seconds(120));
  int64_t total = 0;
  for (const auto* t : tasks) {
    EXPECT_GT(t->cycles(), 100) << "a task starved (lost wakeup?)";
    total += t->cycles();
  }
  // The mutex serializes holds (30 ms each): at most ~4000 cycles/120 s.
  EXPECT_GT(total, 2000);
}

TEST(Smp, SleepWakeTimingUnaffectedByCpuCount) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, SmpOpts(4));
  auto t = std::make_unique<InteractiveTask>(SimDuration::Millis(10),
                                             SimDuration::Millis(90));
  InteractiveTask* raw = t.get();
  kernel.Spawn("interactive", std::move(t));
  kernel.Spawn("spin1", std::make_unique<ComputeTask>());
  kernel.Spawn("spin2", std::make_unique<ComputeTask>());
  kernel.RunFor(SimDuration::Seconds(10));
  // A free CPU always exists, so the 100 ms cycle holds exactly.
  EXPECT_NEAR(static_cast<double>(raw->interactions()), 100.0, 2.0);
}

TEST(Smp, SingleCpuMatchesLegacyBehaviourExactly) {
  // num_cpus = 1 must reproduce the original kernel path bit-for-bit.
  auto run = [](int cpus) {
    LotteryScheduler::Options lopts;
    lopts.seed = 5;
    LotteryScheduler sched(lopts);
    Kernel kernel(&sched, SmpOpts(cpus));
    const ThreadId a = kernel.Spawn("a", std::make_unique<ComputeTask>());
    sched.FundThread(a, sched.table().base(), 200);
    const ThreadId b = kernel.Spawn("b", std::make_unique<ComputeTask>());
    sched.FundThread(b, sched.table().base(), 100);
    kernel.RunFor(SimDuration::Seconds(100));
    return kernel.CpuTime(a).nanos();
  };
  EXPECT_EQ(run(1), run(1));  // deterministic
}

// --- Partitioned (SmpScheduler) property tests ------------------------------
//
// These drive the partitioned facade through the real kernel and assert
// the invariants that must hold no matter what the balancer does: funding
// is conserved across migrations, no thread is ever lost or double-enqueued
// (even under injected faults), and compensation ratios ride along with a
// migrating thread.

smp::SmpScheduler::Options PartOpts(int cpus, uint32_t seed,
                                    obs::Registry* reg) {
  smp::SmpScheduler::Options o;
  o.num_cpus = cpus;
  o.seed = seed;
  o.metrics = reg;
  return o;
}

TEST(SmpPartitioned, FundingConservedUnderStealAndMigrationChurn) {
  obs::Registry reg;
  smp::SmpScheduler sched(PartOpts(4, 90210, &reg));
  Kernel::Options ko = SmpOpts(4);
  ko.quantum = SimDuration::Millis(10);
  ko.metrics = &reg;
  Kernel kernel(&sched, ko);
  // Mixed load: compute hogs plus interactive sleepers whose think time
  // empties queues (idle pulls) and whose uneven funding skews per-CPU
  // totals (periodic balance steals).
  std::vector<ThreadId> tids;
  int64_t granted = 0;
  for (int i = 0; i < 10; ++i) {
    const bool interactive = (i % 3 == 2);
    std::unique_ptr<ThreadBody> body;
    if (interactive) {
      body = std::make_unique<InteractiveTask>(SimDuration::Millis(5),
                                               SimDuration::Millis(40));
    } else {
      body = std::make_unique<ComputeTask>();
    }
    const ThreadId tid =
        kernel.Spawn("churn" + std::to_string(i), std::move(body));
    const int64_t amount = interactive ? 100 : 400 + 100 * (i % 4);
    sched.FundThread(tid, amount);
    granted += amount;
    tids.push_back(tid);
  }
  // Step the run and re-check the invariants at every step boundary: the
  // facade's books must balance at all times, not just at the end.
  for (int step = 0; step < 10; ++step) {
    kernel.RunFor(SimDuration::Seconds(3));
    sched.CheckIntegrity();
    EXPECT_EQ(sched.table().base()->issued_amount(), granted)
        << "funding leaked by step " << step;
  }
  // The mix must actually have exercised cross-CPU movement.
  EXPECT_GT(sched.steals() + sched.migrations(), 0u);
  for (const ThreadId tid : tids) {
    EXPECT_TRUE(kernel.Alive(tid));
  }
}

TEST(SmpPartitioned, NoThreadLostOrDuplicatedUnderFaultInjection) {
  const FaultPlan plan = FaultPlan::Parse(
      "crash:p=0.001;spurious-wake:p=0.3;delayed-unblock:p=0.5,delay_ms=5");
  FaultInjector faults(plan, 777);
  obs::Registry reg;
  smp::SmpScheduler sched(PartOpts(4, 31337, &reg));
  Kernel::Options ko = SmpOpts(4);
  ko.quantum = SimDuration::Millis(10);
  ko.metrics = &reg;
  ko.faults = &faults;
  Kernel kernel(&sched, ko);
  std::vector<ThreadId> tids;
  for (int i = 0; i < 12; ++i) {
    std::unique_ptr<ThreadBody> body;
    if (i % 2 == 0) {
      body = std::make_unique<ComputeTask>();
    } else {
      body = std::make_unique<InteractiveTask>(SimDuration::Millis(5),
                                               SimDuration::Millis(30));
    }
    const ThreadId tid =
        kernel.Spawn("faulty" + std::to_string(i), std::move(body));
    sched.FundThread(tid, 100 + 50 * (i % 5));
    tids.push_back(tid);
  }
  // Crashes retire threads (the kernel calls RemoveThread); wake faults
  // shake the ready/blocked transitions the balancer races against. The
  // structural invariant — every queued thread in exactly its home CPU's
  // queue, never queued while running — must survive all of it.
  for (int step = 0; step < 15; ++step) {
    kernel.RunFor(SimDuration::Seconds(2));
    sched.CheckIntegrity();
    for (const ThreadId tid : tids) {
      if (kernel.Alive(tid)) {
        EXPECT_GE(sched.HomeCpu(tid), 0);
        EXPECT_LT(sched.HomeCpu(tid), 4);
      } else {
        // Crashed threads must be fully forgotten by the economy.
        EXPECT_THROW(sched.HomeCpu(tid), std::invalid_argument);
      }
    }
  }
  EXPECT_GT(faults.injections(FaultClass::kThreadCrash) +
                faults.injections(FaultClass::kSpuriousWakeup) +
                faults.injections(FaultClass::kDelayedUnblock),
            0u);
}

// Owns the mutex from its first slice on and computes forever.
class HoldForever : public ThreadBody {
 public:
  explicit HoldForever(SimMutex* mutex) : mutex_(mutex) {}
  NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
    if (!held_) {
      held_ = mutex_->Acquire(ctx);
      ASSERT_TRUE(held_);
    }
    mutex_->NoteHeldAcrossSlice(ctx.self());
    ctx.Consume(ctx.remaining());
  }

 private:
  SimMutex* mutex_;
  bool held_ = false;
};

TEST(SmpPartitioned, MutexHolderInheritsWaiterFundingAcrossCpus) {
  obs::Registry reg;
  smp::SmpScheduler sched(PartOpts(4, 2718, &reg));
  Kernel::Options ko = SmpOpts(4);
  ko.quantum = SimDuration::Millis(10);
  ko.metrics = &reg;
  Kernel kernel(&sched, ko);
  SimMutex mutex(&kernel, "m");
  const ThreadId holder =
      kernel.Spawn("holder", std::make_unique<HoldForever>(&mutex));
  sched.FundThread(holder, 100);
  kernel.RunFor(SimDuration::Millis(50));
  ASSERT_EQ(mutex.owner(), holder);
  // Compute load on every CPU, then a waiter homed on another CPU than
  // the holder: round-robin placement puts spawn k on CPU k % 4.
  for (int i = 0; i < 6; ++i) {
    const ThreadId tid = kernel.Spawn("load" + std::to_string(i),
                                      std::make_unique<ComputeTask>());
    sched.FundThread(tid, 100);
  }
  MutexTask::Options mopts;
  const ThreadId waiter = kernel.Spawn(
      "waiter", std::make_unique<MutexTask>(&mutex, mopts));
  sched.FundThread(waiter, 300);
  EXPECT_NE(sched.HomeCpu(waiter), sched.HomeCpu(holder));
  kernel.RunFor(SimDuration::Seconds(2));
  ASSERT_EQ(mutex.num_waiters(), 1u);
  // The blocked waiter's 300 flows through the mutex currency to the
  // holder, wherever the balancer has put either of them.
  EXPECT_EQ(sched.ThreadValue(holder).base_units(), 400);
  EXPECT_GT(reg.counter("lottery.transfers")->value(), 0u);
  sched.CheckIntegrity();
}

TEST(SmpPartitioned, CompensationSurvivesAMigrationChain) {
  obs::Registry reg;
  smp::SmpScheduler sched(PartOpts(4, 4711, &reg));
  sched.AddThread(1, SimTime::Zero());
  sched.FundThread(1, 360);
  sched.OnReady(1, SimTime::Zero());
  // An interactive thread that consumed 1/7 of its quantum holds a 7:1
  // compensation boost; chain it across every CPU and the ratio (and the
  // thread's ticket value) must arrive intact each hop.
  sched.client(1)->SetCompensation(7, 1);
  const uint64_t value = sched.ThreadValue(1).raw_unsigned();
  for (int dst = 1; dst < 4; ++dst) {
    sched.Migrate(1, dst, SimTime::Zero());
    EXPECT_EQ(sched.client(1)->compensation_num(), 7);
    EXPECT_EQ(sched.client(1)->compensation_den(), 1);
    EXPECT_EQ(sched.ThreadValue(1).raw_unsigned(), value);
    EXPECT_EQ(sched.RunnableTickets(dst), value);
    sched.CheckIntegrity();
  }
  EXPECT_EQ(sched.migrations(), 3u);
}

}  // namespace
}  // namespace lottery
