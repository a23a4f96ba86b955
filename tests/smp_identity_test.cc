// Differential proof that the SMP facade is the single-queue scheduler when
// partitioned for one CPU: same winner stream, same RNG state, same
// structured trace, byte for byte — and that with several CPUs, stealing
// over a perfectly balanced system is a draw-free no-op. Together these pin
// the determinism contract of src/sched/smp/: balance decisions live on
// their own RNG stream and never perturb per-CPU dispatch.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/lottery_scheduler.h"
#include "src/obs/etrace/trace_buffer.h"
#include "src/obs/registry.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sim/kernel.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace {

constexpr int kThreads = 6;
constexpr uint32_t kSeed = 20817;

struct RunResult {
  std::string trace_bytes;
  uint32_t rng_state = 0;
  std::vector<int64_t> cpu_time_ns;
  uint64_t context_switches = 0;
};

Kernel::Options KernelOpts(int cpus, obs::Registry* reg,
                           etrace::TraceBuffer* trace) {
  Kernel::Options o;
  o.quantum = SimDuration::Millis(10);
  o.num_cpus = cpus;
  o.metrics = reg;
  o.trace = trace;
  return o;
}

template <typename Sched, typename Fund>
RunResult Drive(Sched& sched, Kernel& kernel, Fund fund) {
  std::vector<ThreadId> tids;
  for (int i = 0; i < kThreads; ++i) {
    tids.push_back(kernel.Spawn("worker" + std::to_string(i),
                                std::make_unique<ComputeTask>()));
  }
  for (int i = 0; i < kThreads; ++i) {
    fund(sched, tids[static_cast<size_t>(i)], 100 + 50 * i);
  }
  kernel.RunFor(SimDuration::Seconds(30));
  RunResult r;
  for (const ThreadId tid : tids) {
    r.cpu_time_ns.push_back(kernel.CpuTime(tid).nanos());
  }
  r.context_switches = kernel.context_switches();
  return r;
}

RunResult RunPlain(RunQueueBackend backend) {
  obs::Registry reg;
  etrace::TraceBuffer trace;
  LotteryScheduler::Options o;
  o.seed = kSeed;
  o.backend = backend;
  o.metrics = &reg;
  o.trace = &trace;
  LotteryScheduler sched(o);
  Kernel kernel(&sched, KernelOpts(1, &reg, &trace));
  RunResult r = Drive(sched, kernel,
                      [](LotteryScheduler& s, ThreadId tid, int64_t amount) {
                        s.FundThread(tid, s.table().base(), amount);
                      });
  r.trace_bytes = trace.Serialize();
  r.rng_state = sched.rng().state();
  return r;
}

RunResult RunSmp(RunQueueBackend backend, bool steal_enabled) {
  obs::Registry reg;
  etrace::TraceBuffer trace;
  smp::SmpScheduler::Options o;
  o.num_cpus = 1;
  o.seed = kSeed;
  o.cpu.backend = backend;
  o.steal_enabled = steal_enabled;
  o.metrics = &reg;
  o.trace = &trace;
  smp::SmpScheduler sched(o);
  Kernel kernel(&sched, KernelOpts(1, &reg, &trace));
  RunResult r = Drive(sched, kernel,
                      [](smp::SmpScheduler& s, ThreadId tid, int64_t amount) {
                        s.FundThread(tid, amount);
                      });
  r.trace_bytes = trace.Serialize();
  r.rng_state = sched.cpu(0).rng().state();
  EXPECT_EQ(sched.steals(), 0u);
  EXPECT_EQ(sched.migrations(), 0u);
  sched.CheckIntegrity();
  return r;
}

class SmpIdentity : public testing::TestWithParam<RunQueueBackend> {};

// The tentpole contract: SmpScheduler partitioned for one CPU IS the plain
// LotteryScheduler — winner stream (via the trace's decision events), final
// RNG state, per-thread CPU time, and the full structured trace all match
// bit-exactly, for every run-queue backend.
TEST_P(SmpIdentity, OneCpuFacadeIsBitIdenticalToPlainScheduler) {
  const RunResult plain = RunPlain(GetParam());
  const RunResult smp = RunSmp(GetParam(), /*steal_enabled=*/true);
  EXPECT_EQ(plain.rng_state, smp.rng_state);
  EXPECT_EQ(plain.cpu_time_ns, smp.cpu_time_ns);
  EXPECT_EQ(plain.context_switches, smp.context_switches);
  ASSERT_EQ(plain.trace_bytes.size(), smp.trace_bytes.size());
  EXPECT_TRUE(plain.trace_bytes == smp.trace_bytes)
      << "structured traces diverge";
}

// steal_enabled must be unobservable at one CPU (the guard short-circuits
// before any balance logic, so not even RNG construction order differs).
TEST_P(SmpIdentity, StealSwitchUnobservableAtOneCpu) {
  const RunResult on = RunSmp(GetParam(), /*steal_enabled=*/true);
  const RunResult off = RunSmp(GetParam(), /*steal_enabled=*/false);
  EXPECT_EQ(on.rng_state, off.rng_state);
  EXPECT_TRUE(on.trace_bytes == off.trace_bytes);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SmpIdentity,
                         testing::Values(RunQueueBackend::kList,
                                         RunQueueBackend::kTree),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case RunQueueBackend::kList: return "list";
                             case RunQueueBackend::kTree: return "tree";
                           }
                           return "unknown";
                         });

// Zero imbalance => zero draws: with equal funding and equal thread counts
// per CPU, every balance check bails before touching stream(balance), so
// enabling stealing changes nothing — not the trace, not the dispatch RNGs,
// not the balance RNG itself.
TEST(SmpZeroImbalance, StealingIsANoOp) {
  auto run = [](bool steal_enabled) {
    obs::Registry reg;
    etrace::TraceBuffer trace;
    smp::SmpScheduler::Options o;
    o.num_cpus = 4;
    o.seed = kSeed;
    o.cpu.backend = RunQueueBackend::kTree;
    o.steal_enabled = steal_enabled;
    o.metrics = &reg;
    o.trace = &trace;
    smp::SmpScheduler sched(o);
    const uint32_t balance_state_before = sched.balance_rng().state();
    Kernel kernel(&sched, KernelOpts(4, &reg, &trace));
    std::vector<ThreadId> tids;
    for (int i = 0; i < 8; ++i) {
      tids.push_back(kernel.Spawn("eq" + std::to_string(i),
                                  std::make_unique<ComputeTask>()));
    }
    for (const ThreadId tid : tids) {
      sched.FundThread(tid, 250);
    }
    kernel.RunFor(SimDuration::Seconds(30));
    EXPECT_EQ(sched.steals(), 0u);
    EXPECT_EQ(sched.migrations(), 0u);
    EXPECT_EQ(sched.balance_rng().state(), balance_state_before)
        << "a balanced system must never draw from stream(balance)";
    sched.CheckIntegrity();
    return trace.Serialize();
  };
  const std::string with_steal = run(true);
  const std::string without_steal = run(false);
  EXPECT_TRUE(with_steal == without_steal);
}

// The kernel refuses a partitioned scheduler whose CPU count mismatches its
// own (a dispatch would otherwise target a nonexistent queue).
TEST(SmpPartitioning, KernelValidatesCpuCount) {
  smp::SmpScheduler::Options o;
  o.num_cpus = 4;
  obs::Registry reg;
  o.metrics = &reg;
  smp::SmpScheduler sched(o);
  Kernel::Options ko;
  ko.num_cpus = 2;
  ko.metrics = &reg;
  EXPECT_THROW(Kernel(&sched, ko), std::invalid_argument);
  Kernel::Options ok;
  ok.num_cpus = 4;
  ok.metrics = &reg;
  EXPECT_NO_THROW(Kernel(&sched, ok));
}

}  // namespace
}  // namespace lottery
