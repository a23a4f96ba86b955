// Tests for the simulated kernel: dispatch, accounting, sleep, exit,
// idle handling, tick delivery, and the livelock guard.

#include "src/sim/kernel.h"

#include <gtest/gtest.h>

#include "src/sched/round_robin.h"
#include "src/sim/fault.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace {

Kernel::Options DefaultOptions() {
  Kernel::Options opts;
  opts.quantum = SimDuration::Millis(100);
  return opts;
}

// Consumes the full budget every slice.
class Spinner : public ThreadBody {
 public:
  void Run(RunContext& ctx) override { ctx.Consume(ctx.remaining()); }
};

// Runs for `burst` then sleeps for `nap`, `cycles` times, then exits.
class Napper : public ThreadBody {
 public:
  Napper(SimDuration burst, SimDuration nap, int cycles)
      : burst_(burst), nap_(nap), cycles_(cycles) {}
  void Run(RunContext& ctx) override {
    ctx.Consume(burst_);
    if (--cycles_ <= 0) {
      ctx.ExitThread();
      return;
    }
    ctx.SleepFor(nap_);
  }

 private:
  SimDuration burst_;
  SimDuration nap_;
  int cycles_;
};

// Stays runnable but consumes nothing (to trip the livelock guard).
class Lazy : public ThreadBody {
 public:
  void Run(RunContext& ctx) override { ctx.Yield(); }
};

TEST(Kernel, AdvancesClockByConsumedCpu) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  kernel.Spawn("spin", std::make_unique<Spinner>());
  kernel.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(kernel.now(), SimTime::Zero() + SimDuration::Seconds(1));
}

TEST(Kernel, CpuTimeAccountedPerThread) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  const ThreadId a = kernel.Spawn("a", std::make_unique<Spinner>());
  const ThreadId b = kernel.Spawn("b", std::make_unique<Spinner>());
  kernel.RunFor(SimDuration::Seconds(10));
  EXPECT_EQ(kernel.CpuTime(a), SimDuration::Seconds(5));
  EXPECT_EQ(kernel.CpuTime(b), SimDuration::Seconds(5));
  EXPECT_EQ(kernel.Dispatches(a), 50u);
}

TEST(Kernel, ProgressReachesTracer) {
  RoundRobinScheduler sched;
  Tracer tracer(SimDuration::Seconds(1));
  Kernel kernel(&sched, DefaultOptions(), &tracer);
  const ThreadId a = kernel.Spawn(
      "a", std::make_unique<ComputeTask>(
               ComputeTask::Options{SimDuration::Millis(1)}));
  kernel.RunFor(SimDuration::Seconds(2));
  // 1 ms per iteration, sole thread: 1000 iterations per second. A unit
  // finishing exactly on a window edge is attributed to the next window,
  // so the one finishing at t = 1 s opens window 1 and the last one, at
  // t = 2 s, opens window 2.
  EXPECT_EQ(tracer.TotalProgress(a), 2000);
  EXPECT_EQ(tracer.WindowProgress(a, 0), 999);
  EXPECT_EQ(tracer.WindowProgress(a, 1), 1000);
  EXPECT_EQ(tracer.WindowProgress(a, 2), 1);
  EXPECT_EQ(tracer.num_windows(), 3u);
}

// How a progress-reporting slice ends.
enum class Ending { kBlock, kSleep, kExit, kInjectedCrash };

// One 10 ms slice that reports progress across eleven 1 ms tracer windows:
// by hand at 0.5 ms, 1.5 ms and on the 2 ms edge, then as 1 ms units
// (0.3 ms of the first one already done) finishing at 2.7, 3.7, ... 9.7 ms,
// then a zero on the 10 ms edge where the slice ends, which still opens
// window 10 as a direct Tracer::AddProgress would.
class EdgeReporter : public ThreadBody {
 public:
  explicit EdgeReporter(Ending ending) : ending_(ending) {}
  void Run(RunContext& ctx) override {
    ctx.Consume(SimDuration::Micros(500));
    ctx.AddProgress(1);
    ctx.Consume(SimDuration::Micros(1000));
    ctx.AddProgress(2);
    ctx.Consume(SimDuration::Micros(500));
    ctx.AddProgress(4);
    partial_ = SimDuration::Micros(300);
    units_ = ctx.ConsumeUnits(SimDuration::Millis(1), &partial_);
    ctx.AddProgress(0);
    switch (ending_) {
      case Ending::kBlock:
        ctx.Block();
        break;
      case Ending::kSleep:
        ctx.SleepFor(SimDuration::Seconds(1));
        break;
      case Ending::kExit:
        ctx.ExitThread();
        break;
      case Ending::kInjectedCrash:
        break;  // preempted; the fault injector kills it at the slice end
    }
  }
  int64_t units() const { return units_; }
  SimDuration partial() const { return partial_; }

 private:
  Ending ending_;
  int64_t units_ = 0;
  SimDuration partial_{};
};

TEST(Kernel, ProgressSurvivesEverySliceEnding) {
  for (const Ending ending : {Ending::kBlock, Ending::kSleep, Ending::kExit,
                              Ending::kInjectedCrash}) {
    SCOPED_TRACE(static_cast<int>(ending));
    RoundRobinScheduler sched;
    Tracer tracer(SimDuration::Millis(1));
    FaultSpec crash;
    crash.fault = FaultClass::kThreadCrash;
    crash.at_nanos = 0;
    FaultInjector faults(FaultPlan{{crash}}, 1);
    Kernel::Options opts;
    opts.quantum = SimDuration::Millis(10);
    if (ending == Ending::kInjectedCrash) {
      opts.faults = &faults;
    }
    Kernel kernel(&sched, opts, &tracer);
    auto body = std::make_unique<EdgeReporter>(ending);
    EdgeReporter* raw = body.get();
    const ThreadId a = kernel.Spawn("edges", std::move(body));
    kernel.RunFor(SimDuration::Millis(10));

    EXPECT_EQ(kernel.CpuTime(a), SimDuration::Millis(10));
    EXPECT_EQ(kernel.Dispatches(a), 1u);
    const bool exits =
        ending == Ending::kExit || ending == Ending::kInjectedCrash;
    EXPECT_EQ(kernel.Alive(a), !exits);
    EXPECT_EQ(raw->units(), 8);
    EXPECT_EQ(raw->partial(), SimDuration::Micros(300));
    const std::vector<int64_t> want = {1, 2, 5, 1, 1, 1, 1, 1, 1, 1, 0};
    ASSERT_EQ(tracer.num_windows(), want.size());
    for (size_t w = 0; w < want.size(); ++w) {
      EXPECT_EQ(tracer.WindowProgress(a, w), want[w]) << "window " << w;
    }
    EXPECT_EQ(tracer.TotalProgress(a), 15);
  }
}

TEST(RunContextTest, ConsumeUnitsRejectsBadUnits) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  class BadUnits : public ThreadBody {
   public:
    void Run(RunContext& ctx) override {
      SimDuration partial{};
      EXPECT_THROW(ctx.ConsumeUnits(SimDuration::Nanos(0), &partial),
                   std::invalid_argument);
      partial = SimDuration::Millis(1);
      EXPECT_THROW(ctx.ConsumeUnits(SimDuration::Millis(1), &partial),
                   std::invalid_argument);
      EXPECT_EQ(ctx.used().nanos(), 0);
      ctx.Consume(ctx.remaining());
      ctx.ExitThread();
    }
  };
  kernel.Spawn("bad", std::make_unique<BadUnits>());
  kernel.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(kernel.num_live_threads(), 0u);
}

TEST(Kernel, SleepWakesAtTheRightTime) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  kernel.Spawn("nap", std::make_unique<Napper>(SimDuration::Millis(10),
                                               SimDuration::Millis(90), 3));
  kernel.RunFor(SimDuration::Seconds(1));
  // Three 10 ms bursts + two 90 ms naps = 210 ms of activity; the thread
  // exited afterwards, and the kernel idles to the horizon.
  EXPECT_EQ(kernel.num_live_threads(), 0u);
  EXPECT_EQ(kernel.idle_time(),
            SimDuration::Seconds(1) - SimDuration::Millis(30));
}

TEST(Kernel, IdleTimeWhenNoThreads) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  kernel.RunFor(SimDuration::Seconds(3));
  // Nothing to run: the clock idles forward to the horizon.
  EXPECT_DOUBLE_EQ(kernel.now().ToSecondsF(), 3.0);
  EXPECT_EQ(kernel.idle_time(), SimDuration::Seconds(3));
}

TEST(Kernel, MixedLoadSleeperGetsCpuPromptly) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  const ThreadId spin = kernel.Spawn("spin", std::make_unique<Spinner>());
  const ThreadId nap = kernel.Spawn(
      "nap", std::make_unique<Napper>(SimDuration::Millis(10),
                                      SimDuration::Millis(200), 1000));
  kernel.RunFor(SimDuration::Seconds(10));
  EXPECT_GT(kernel.CpuTime(nap).ToSecondsF(), 0.2);
  EXPECT_GT(kernel.CpuTime(spin).ToSecondsF(), 8.0);
}

TEST(Kernel, ExitRemovesFromScheduler) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  const ThreadId t = kernel.Spawn(
      "short", std::make_unique<Napper>(SimDuration::Millis(10),
                                        SimDuration::Millis(10), 1));
  kernel.Spawn("spin", std::make_unique<Spinner>());
  kernel.RunFor(SimDuration::Seconds(1));
  EXPECT_FALSE(kernel.Alive(t));
  EXPECT_EQ(kernel.num_live_threads(), 1u);
  EXPECT_THROW(kernel.Wake(t, kernel.now()), std::logic_error);
}

TEST(Kernel, ContextSwitchesCounted) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  kernel.Spawn("a", std::make_unique<Spinner>());
  kernel.Spawn("b", std::make_unique<Spinner>());
  kernel.RunFor(SimDuration::Seconds(1));
  // Alternating every quantum: ~10 switches in 10 quanta.
  EXPECT_GE(kernel.context_switches(), 9u);
}

TEST(Kernel, TickDeliveredOncePerInterval) {
  class CountingSched : public RoundRobinScheduler {
   public:
    void Tick(SimTime) override { ++ticks; }
    int ticks = 0;
  };
  CountingSched sched;
  Kernel kernel(&sched, DefaultOptions());
  kernel.Spawn("spin", std::make_unique<Spinner>());
  kernel.RunFor(SimDuration::Seconds(5));
  EXPECT_EQ(sched.ticks, 5);
}

TEST(Kernel, LivelockGuardThrows) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  kernel.Spawn("lazy", std::make_unique<Lazy>());
  EXPECT_THROW(kernel.RunFor(SimDuration::Seconds(1)), std::logic_error);
}

TEST(Kernel, SpawnNotReadyStaysParkedUntilWoken) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  const ThreadId t = kernel.Spawn("parked", std::make_unique<Spinner>(),
                                  /*start_ready=*/false);
  kernel.Spawn("spin", std::make_unique<Spinner>());
  kernel.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(kernel.CpuTime(t).nanos(), 0);
  kernel.Wake(t, kernel.now());
  kernel.RunFor(SimDuration::Seconds(1));
  EXPECT_GT(kernel.CpuTime(t).nanos(), 0);
}

TEST(Kernel, ThreadNamesAreKept) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  const ThreadId t = kernel.Spawn("alice", std::make_unique<Spinner>());
  EXPECT_EQ(kernel.ThreadName(t), "alice");
  EXPECT_THROW(kernel.ThreadName(999), std::invalid_argument);
}

TEST(Kernel, SpawnFromInsideARunningBody) {
  // Forking: a body may spawn children mid-slice through ctx.kernel().
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  // The child id is written through an external pointer: the forker's body
  // object is destroyed when the thread exits.
  class Forker : public ThreadBody {
   public:
    explicit Forker(ThreadId* child_out) : child_out_(child_out) {}
    void Run(RunContext& ctx) override {
      ctx.Consume(SimDuration::Millis(10));
      *child_out_ = ctx.kernel().Spawn("child", std::make_unique<Spinner>());
      ctx.ExitThread();
    }
    ThreadId* child_out_;
  };
  ThreadId child = kInvalidThreadId;
  kernel.Spawn("forker", std::make_unique<Forker>(&child));
  kernel.RunFor(SimDuration::Seconds(1));
  ASSERT_NE(child, kInvalidThreadId);
  EXPECT_TRUE(kernel.Alive(child));
  EXPECT_GT(kernel.CpuTime(child).ToSecondsF(), 0.9);
}

TEST(Kernel, RejectsBadQuantum) {
  RoundRobinScheduler sched;
  Kernel::Options opts;
  opts.quantum = SimDuration::Nanos(0);
  EXPECT_THROW(Kernel(&sched, opts), std::invalid_argument);
}

TEST(RunContextTest, ConsumeClampsToBudget) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  class Greedy : public ThreadBody {
   public:
    void Run(RunContext& ctx) override {
      const SimDuration got = ctx.Consume(SimDuration::Seconds(10));
      EXPECT_EQ(got, SimDuration::Millis(100));
      EXPECT_EQ(ctx.remaining().nanos(), 0);
      EXPECT_THROW(ctx.Consume(SimDuration::Nanos(-1)), std::invalid_argument);
      ctx.ExitThread();
    }
  };
  kernel.Spawn("greedy", std::make_unique<Greedy>());
  kernel.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(kernel.num_live_threads(), 0u);
}

TEST(RunContextTest, DoubleDispositionThrows) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, DefaultOptions());
  class Confused : public ThreadBody {
   public:
    void Run(RunContext& ctx) override {
      ctx.Consume(SimDuration::Millis(1));
      ctx.Yield();
      EXPECT_THROW(ctx.Block(), std::logic_error);
      exercised = true;
    }
    bool exercised = false;
  };
  auto body = std::make_unique<Confused>();
  Confused* raw = body.get();
  kernel.Spawn("confused", std::move(body));
  kernel.RunFor(SimDuration::Millis(1));
  EXPECT_TRUE(raw->exercised);
}

}  // namespace
}  // namespace lottery
