// Differential proof that the SMP facade is the single-queue scheduler when
// partitioned for one CPU: same winner stream, same RNG state, same
// structured trace, byte for byte — with or without kernel services moving
// funding through the economy — and that with several CPUs, stealing over
// a perfectly balanced system is a draw-free no-op. Together these pin the
// determinism contract of src/sched/smp/: balance decisions live on their
// own RNG stream and never perturb per-CPU dispatch.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/lottery_scheduler.h"
#include "src/obs/etrace/trace_buffer.h"
#include "src/obs/registry.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sim/kernel.h"
#include "src/sim/rpc.h"
#include "src/sim/sync.h"
#include "src/workloads/compute.h"
#include "src/workloads/mutex_workload.h"
#include "src/workloads/query_server.h"

namespace lottery {
namespace {

constexpr int kThreads = 6;
constexpr uint32_t kSeed = 20817;

struct RunResult {
  std::string trace_bytes;
  uint32_t rng_state = 0;
  std::vector<int64_t> cpu_time_ns;
  uint64_t context_switches = 0;
  uint64_t transfers = 0;
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

LotteryScheduler::Options EconomyOpts(RunQueueBackend backend,
                                      obs::Registry* reg,
                                      etrace::TraceBuffer* trace) {
  LotteryScheduler::Options o;
  o.seed = kSeed;
  o.backend = backend;
  o.metrics = reg;
  o.trace = trace;
  return o;
}

// Compute threads funded in base, plus — with `services` — a world whose
// funding moves through the kernel services: an RPC port with 8:3:1
// clients served by ticketless workers (fig7's shape) and two 2:1 groups
// contending for one mutex (fig11's).
RunResult Drive(LotteryScheduler& economy, Kernel& kernel, bool services) {
  const auto fund = [&economy](ThreadId tid, int64_t amount) {
    economy.FundThread(tid, economy.table().base(), amount);
  };
  std::vector<ThreadId> tids;
  for (int i = 0; i < kThreads; ++i) {
    tids.push_back(kernel.Spawn("worker" + std::to_string(i),
                                std::make_unique<ComputeTask>()));
    fund(tids.back(), 100 + 50 * i);
  }
  std::unique_ptr<RpcPort> port;
  std::unique_ptr<SimMutex> mutex;
  if (services) {
    port = std::make_unique<RpcPort>(&kernel, "db");
    QueryClient::Options copts;
    copts.query_cost = SimDuration::Millis(50);
    const int64_t client_funds[] = {800, 300, 100};
    for (int i = 0; i < 3; ++i) {
      tids.push_back(kernel.Spawn(
          "client" + std::to_string(i),
          std::make_unique<QueryClient>(port.get(), copts)));
      fund(tids.back(), client_funds[i]);
    }
    for (int i = 0; i < 3; ++i) {
      tids.push_back(kernel.Spawn("server" + std::to_string(i),
                                  std::make_unique<QueryWorker>(port.get())));
      port->RegisterServer(tids.back());
    }
    mutex = std::make_unique<SimMutex>(&kernel, "m");
    MutexTask::Options mopts;
    mopts.hold = SimDuration::Millis(20);
    mopts.compute = SimDuration::Millis(20);
    mopts.jitter = 0.1;
    for (int i = 0; i < 8; ++i) {
      mopts.jitter_seed = static_cast<uint32_t>(i + 1);
      tids.push_back(kernel.Spawn(
          "m" + std::to_string(i),
          std::make_unique<MutexTask>(mutex.get(), mopts)));
      fund(tids.back(), i % 2 == 0 ? 200 : 100);
    }
  }
  kernel.RunFor(SimDuration::Seconds(30));
  RunResult r;
  for (const ThreadId tid : tids) {
    r.cpu_time_ns.push_back(kernel.CpuTime(tid).nanos());
  }
  r.context_switches = kernel.context_switches();
  r.transfers = kernel.metrics().counter("lottery.transfers")->value();
  r.rng_state = economy.rng().state();
  return r;
}

RunResult RunPlain(RunQueueBackend backend, bool services) {
  obs::Registry reg;
  etrace::TraceBuffer trace;
  LotteryScheduler sched(EconomyOpts(backend, &reg, &trace));
  Kernel kernel(&sched, KernelOpts(1, &reg, &trace));
  RunResult r = Drive(sched, kernel, services);
  r.trace_bytes = trace.Serialize();
  return r;
}

RunResult RunSmp(RunQueueBackend backend, bool services, bool steal_enabled) {
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
  RunResult r = Drive(sched, kernel, services);
  r.trace_bytes = trace.Serialize();
  EXPECT_EQ(sched.steals(), 0u);
  EXPECT_EQ(sched.migrations(), 0u);
  sched.CheckIntegrity();
  return r;
}

// (backend, services world on)
class SmpIdentity
    : public testing::TestWithParam<std::tuple<RunQueueBackend, bool>> {};

// The tentpole contract: SmpScheduler partitioned for one CPU IS the plain
// LotteryScheduler — winner stream (via the trace's decision events), final
// RNG state, per-thread CPU time, transfers, and the full structured trace
// all match bit-exactly, for every run-queue backend.
TEST_P(SmpIdentity, OneCpuFacadeIsBitIdenticalToPlainScheduler) {
  const auto [backend, services] = GetParam();
  const RunResult plain = RunPlain(backend, services);
  const RunResult smp = RunSmp(backend, services, /*steal_enabled=*/true);
  EXPECT_EQ(plain.rng_state, smp.rng_state);
  EXPECT_EQ(plain.cpu_time_ns, smp.cpu_time_ns);
  EXPECT_EQ(plain.context_switches, smp.context_switches);
  EXPECT_EQ(plain.transfers, smp.transfers);
  EXPECT_EQ(plain.transfers > 0, services);
  ASSERT_EQ(plain.trace_bytes.size(), smp.trace_bytes.size());
  EXPECT_TRUE(plain.trace_bytes == smp.trace_bytes)
      << "structured traces diverge";
}

// steal_enabled must be unobservable at one CPU (the guard short-circuits
// before any balance logic, so not even RNG construction order differs).
TEST_P(SmpIdentity, StealSwitchUnobservableAtOneCpu) {
  const auto [backend, services] = GetParam();
  const RunResult on = RunSmp(backend, services, /*steal_enabled=*/true);
  const RunResult off = RunSmp(backend, services, /*steal_enabled=*/false);
  EXPECT_EQ(on.rng_state, off.rng_state);
  EXPECT_TRUE(on.trace_bytes == off.trace_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SmpIdentity,
    testing::Combine(testing::Values(RunQueueBackend::kList,
                                     RunQueueBackend::kTree),
                     testing::Bool()),
    [](const auto& param_info) {
      std::string name;
      switch (std::get<0>(param_info.param)) {
        case RunQueueBackend::kList: name = "list"; break;
        case RunQueueBackend::kTree: name = "tree"; break;
      }
      return name + (std::get<1>(param_info.param) ? "_services" : "");
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
