// Unit tests for the SMP balancing machinery in src/sched/smp/: the domain
// topology, forced migration (a queued slot moving between per-CPU run
// queues of the one economy, value and compensation intact), idle-pull
// stealing, and the periodic ticket-weighted balance steal converging
// toward equal per-CPU totals.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/core/currency.h"
#include "src/obs/registry.h"
#include "src/sched/smp/balance_domains.h"
#include "src/sched/smp/smp_scheduler.h"

namespace lottery {
namespace {

using smp::Domain;
using smp::DomainMap;
using smp::SmpScheduler;

TEST(DomainMap, UniprocessorHasNoLevels) {
  const DomainMap map(1);
  EXPECT_EQ(map.num_levels(), 0);
}

TEST(DomainMap, TwoCpusCollapseToOneLevel) {
  const DomainMap map(2);
  ASSERT_EQ(map.num_levels(), 1);
  const Domain d = map.At(1, 0);
  EXPECT_EQ(d.first, 0);
  EXPECT_EQ(d.count, 2);
}

TEST(DomainMap, FourCpusPairThenSystem) {
  const DomainMap map(4);
  ASSERT_EQ(map.num_levels(), 2);
  EXPECT_EQ(map.At(3, 0).first, 2);
  EXPECT_EQ(map.At(3, 0).count, 2);
  EXPECT_EQ(map.At(3, 1).first, 0);
  EXPECT_EQ(map.At(3, 1).count, 4);
}

TEST(DomainMap, SixteenCpusPairPackageSystem) {
  const DomainMap map(16);
  ASSERT_EQ(map.num_levels(), 3);
  EXPECT_EQ(map.At(5, 0).first, 4);
  EXPECT_EQ(map.At(5, 0).count, 2);
  EXPECT_EQ(map.At(5, 1).first, 0);
  EXPECT_EQ(map.At(5, 1).count, 8);
  EXPECT_EQ(map.At(13, 1).first, 8);
  EXPECT_EQ(map.At(13, 1).count, 8);
  EXPECT_EQ(map.At(13, 2).first, 0);
  EXPECT_EQ(map.At(13, 2).count, 16);
}

TEST(DomainMap, UnevenTrailingPackageIsSmaller) {
  const DomainMap map(12);
  ASSERT_EQ(map.num_levels(), 3);  // 2, 8, 12
  EXPECT_EQ(map.At(9, 1).first, 8);
  EXPECT_EQ(map.At(9, 1).count, 4);
}

TEST(DomainMap, RejectsBadArguments) {
  EXPECT_THROW(DomainMap(0), std::invalid_argument);
  const DomainMap map(4);
  EXPECT_THROW(map.At(4, 0), std::out_of_range);
  EXPECT_THROW(map.At(0, 2), std::out_of_range);
}

SmpScheduler::Options BalanceOpts(int cpus, obs::Registry* reg) {
  SmpScheduler::Options o;
  o.num_cpus = cpus;
  o.seed = 7001;
  o.metrics = reg;
  return o;
}

// Spawns `n` threads (round-robin homes), funds thread i with fund(i), and
// readies everything.
std::vector<ThreadId> Populate(SmpScheduler& sched, int n,
                               const std::vector<int64_t>& amounts) {
  std::vector<ThreadId> tids;
  for (int i = 0; i < n; ++i) {
    const ThreadId tid = static_cast<ThreadId>(i + 1);
    sched.AddThread(tid, SimTime::Zero());
    sched.FundThread(tid, amounts[static_cast<size_t>(i)]);
    sched.OnReady(tid, SimTime::Zero());
    tids.push_back(tid);
  }
  return tids;
}

TEST(SmpMigrate, CarriesFundingValueAndCompensation) {
  obs::Registry reg;
  SmpScheduler sched(BalanceOpts(2, &reg));
  const auto tids = Populate(sched, 2, {100, 100});
  const ThreadId mover = tids[0];  // homed on CPU 0
  ASSERT_EQ(sched.HomeCpu(mover), 0);
  // Funding from a user currency, on top of the base grant: the move must
  // keep it, since the thread's currency graph never leaves the economy.
  CurrencyTable& table = sched.table();
  Currency* user = table.CreateCurrency("alice");
  table.Fund(user, table.CreateTicket(table.base(), 300));
  sched.FundThread(mover, user, 50);
  // Grant a compensation boost as an under-consuming quantum would.
  sched.client(mover)->SetCompensation(5, 1);
  const uint64_t value_before = sched.ThreadValue(mover).raw_unsigned();
  EXPECT_EQ(value_before, Funding::FromBase(5 * 400).raw_unsigned());

  sched.Migrate(mover, 1, SimTime::Zero());

  EXPECT_EQ(sched.HomeCpu(mover), 1);
  EXPECT_EQ(sched.migrations(), 1u);
  EXPECT_EQ(sched.ThreadValue(mover).raw_unsigned(), value_before);
  EXPECT_EQ(sched.client(mover)->compensation_num(), 5);
  EXPECT_EQ(sched.client(mover)->compensation_den(), 1);
  EXPECT_TRUE(sched.IsQueued(mover));
  EXPECT_EQ(sched.QueuedCount(0), 0u);
  EXPECT_EQ(sched.QueuedCount(1), 2u);
  EXPECT_EQ(sched.RunnableTickets(1),
            value_before + Funding::FromBase(100).raw_unsigned());
  sched.CheckIntegrity();
}

TEST(SmpMigrate, RejectsRunningBlockedAndResidentThreads) {
  obs::Registry reg;
  SmpScheduler sched(BalanceOpts(2, &reg));
  const auto tids = Populate(sched, 4, {100, 100, 100, 100});
  // Already on the destination.
  EXPECT_THROW(sched.Migrate(tids[1], 1, SimTime::Zero()),
               std::invalid_argument);
  // Running threads are pinned until their slice resolves.
  const ThreadId running = sched.PickNextOnCpu(0, SimTime::Zero());
  ASSERT_NE(running, kInvalidThreadId);
  EXPECT_THROW(sched.Migrate(running, 1, SimTime::Zero()),
               std::invalid_argument);
  // Blocked threads left the queue; they migrate by re-homing on wake, not
  // by stealing.
  sched.OnBlocked(tids[3], SimTime::Zero());
  EXPECT_THROW(sched.Migrate(tids[3], 0, SimTime::Zero()),
               std::invalid_argument);
  // Unknown thread.
  EXPECT_THROW(sched.Migrate(999, 1, SimTime::Zero()), std::invalid_argument);
}

TEST(SmpSteal, IdleCpuPullsFromNearestBusyDomain) {
  obs::Registry reg;
  SmpScheduler::Options o = BalanceOpts(4, &reg);
  SmpScheduler sched(o);
  // Two threads, both homed on CPU 0 (then 1): CPUs 2/3 start empty.
  sched.AddThread(1, SimTime::Zero());
  sched.FundThread(1, 300);
  sched.OnReady(1, SimTime::Zero());
  sched.AddThread(2, SimTime::Zero());  // home 1, stays blocked
  // CPU 3 is idle; its pair sibling (CPU 2) is empty too, so the pull
  // widens to the system level and takes CPU 0's queued thread.
  const ThreadId got = sched.PickNextOnCpu(3, SimTime::Zero());
  EXPECT_EQ(got, 1u);
  EXPECT_EQ(sched.steals(), 1u);
  EXPECT_EQ(sched.HomeCpu(1), 3);
  sched.CheckIntegrity();
}

TEST(SmpSteal, NothingToStealIsQuietlyIdle) {
  obs::Registry reg;
  SmpScheduler sched(BalanceOpts(4, &reg));
  const uint32_t balance_state = sched.balance_rng().state();
  EXPECT_EQ(sched.PickNextOnCpu(2, SimTime::Zero()), kInvalidThreadId);
  EXPECT_EQ(sched.steals(), 0u);
  EXPECT_EQ(sched.balance_rng().state(), balance_state);
}

TEST(SmpBalance, PeriodicStealsEqualizeTicketValue) {
  obs::Registry reg;
  SmpScheduler::Options o = BalanceOpts(2, &reg);
  o.balance_period = 1;  // check on every dispatch
  SmpScheduler sched(o);
  // Round-robin homing puts the rich threads (even spawn order) on CPU 0
  // and the poor ones on CPU 1: totals start 4000 vs 40.
  Populate(sched, 8, {1000, 10, 1000, 10, 1000, 10, 1000, 10});
  const uint64_t total = sched.RunnableTickets(0) + sched.RunnableTickets(1);
  const SimDuration quantum = SimDuration::Millis(10);
  SimTime now = SimTime::Zero();
  for (int round = 0; round < 300; ++round) {
    for (int cpu = 0; cpu < 2; ++cpu) {
      const ThreadId tid = sched.PickNextOnCpu(cpu, now);
      if (tid != kInvalidThreadId) {
        sched.OnQuantumEnd(tid, quantum, quantum, now + quantum);
        sched.OnReady(tid, now + quantum);
      }
    }
    now = now + quantum;
  }
  sched.CheckIntegrity();
  EXPECT_GT(sched.migrations(), 0u);
  // Every thread is queued again; per-CPU runnable totals must be near
  // equal — the balancer chased ticket value, not thread counts.
  const uint64_t a = sched.RunnableTickets(0);
  const uint64_t b = sched.RunnableTickets(1);
  const uint64_t diff = a > b ? a - b : b - a;
  EXPECT_LT(diff * 4, a + b)
      << "per-CPU totals " << a << " vs " << b << " still skewed";
  // Global value is conserved across however many migrations happened.
  EXPECT_EQ(a + b, total);
}

TEST(SmpBalance, CostVetoReadsTheBacklogAtTheCheck) {
  obs::Registry reg;
  SmpScheduler::Options o = BalanceOpts(2, &reg);
  o.balance_period = 1;  // check on every dispatch
  SmpScheduler sched(o);
  // CPU 0 holds threads 1 and 3 (1 ticket each), CPU 1 threads 2 and 4
  // (1000 each).
  Populate(sched, 4, {1, 1000, 1, 1000});
  // One 1 ms slice sets the quantum the veto weighs a steal's gain by: the
  // imbalance's share of 1 ms, just under 1 ms here.
  const SimDuration quantum = SimDuration::Millis(1);
  const ThreadId ran = sched.PickNextOnCpu(1, SimTime::Zero());
  ASSERT_NE(ran, kInvalidThreadId);
  const SimTime t0 = SimTime::Zero() + quantum;
  sched.OnQuantumEnd(ran, quantum, quantum, t0);
  sched.OnReady(ran, t0);
  // Twenty forced round trips of thread 2 at t0 queue 640 cells on the
  // 1->0 circuit (the switch's first). Behind them a steal costs 672
  // cells x 3 us, about 2 ms: more than its gain.
  for (int i = 0; i < 20; ++i) {
    sched.Migrate(2, 0, t0);
    sched.Migrate(2, 1, t0);
  }
  const CrossbarSwitch::CircuitId one_to_zero = 0;
  ASSERT_EQ(sched.crossbar().Backlog(one_to_zero), 640u);
  const uint64_t forced = sched.migrations();

  // At t0 the cells are still queued, so CPU 0's balance check vetoes the
  // steal.
  const ThreadId local = sched.PickNextOnCpu(0, t0);
  ASSERT_NE(local, kInvalidThreadId);
  EXPECT_EQ(sched.cost_vetoes(), 1u);
  EXPECT_EQ(sched.migrations(), forced);
  sched.OnQuantumEnd(local, quantum, quantum, t0 + quantum);
  sched.OnReady(local, t0 + quantum);

  // 10 ms later the switch has long sent them (640 slots of 3 us), so the
  // steal costs its footprint alone (96 us) and goes ahead.
  const SimTime later = t0 + SimDuration::Millis(10);
  ASSERT_NE(sched.PickNextOnCpu(0, later), kInvalidThreadId);
  EXPECT_EQ(sched.cost_vetoes(), 1u);
  EXPECT_EQ(sched.migrations(), forced + 1);
  EXPECT_EQ(sched.QueuedCount(1), 1u);
  // Only the new footprint is queued on the circuit.
  EXPECT_EQ(sched.crossbar().Backlog(one_to_zero), 32u);
  sched.CheckIntegrity();
}

TEST(SmpBalance, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    obs::Registry reg;
    SmpScheduler::Options o;
    o.num_cpus = 4;
    o.seed = 4242;
    o.balance_period = 2;
    o.metrics = &reg;
    SmpScheduler sched(o);
    std::vector<int64_t> amounts;
    for (int i = 0; i < 12; ++i) {
      amounts.push_back(50 + 125 * (i % 4));
    }
    Populate(sched, 12, amounts);
    const SimDuration quantum = SimDuration::Millis(10);
    SimTime now = SimTime::Zero();
    std::vector<ThreadId> winners;
    for (int round = 0; round < 200; ++round) {
      for (int cpu = 0; cpu < 4; ++cpu) {
        const ThreadId tid = sched.PickNextOnCpu(cpu, now);
        winners.push_back(tid);
        if (tid != kInvalidThreadId) {
          sched.OnQuantumEnd(tid, quantum, quantum, now + quantum);
          sched.OnReady(tid, now + quantum);
        }
      }
      now = now + quantum;
    }
    winners.push_back(static_cast<ThreadId>(sched.migrations()));
    winners.push_back(static_cast<ThreadId>(sched.steals()));
    return winners;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace lottery
