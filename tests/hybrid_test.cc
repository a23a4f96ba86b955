// Tests for the hybrid fixed-priority + lottery scheduler (the Section 4
// co-existence arrangement).

#include "src/sched/hybrid.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/sim/kernel.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace {

const SimTime kT0 = SimTime::Zero();

Kernel::Options KOpts() {
  Kernel::Options o;
  o.quantum = SimDuration::Millis(100);
  return o;
}

TEST(Hybrid, FixedBeatsLottery) {
  HybridScheduler sched;
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  sched.economy()->FundThread(1, sched.economy()->table().base(), 1000000);
  sched.SetFixedPriority(2, 5);
  sched.OnReady(1, kT0);
  sched.OnReady(2, kT0);
  // The driver-style thread always wins, regardless of lottery funding.
  EXPECT_EQ(sched.PickNext(kT0), 2u);
  EXPECT_EQ(sched.PickNext(kT0), 1u);
}

TEST(Hybrid, PromotionWhileReadyMovesBands) {
  HybridScheduler sched;
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  sched.economy()->FundThread(1, sched.economy()->table().base(), 100);
  sched.economy()->FundThread(2, sched.economy()->table().base(), 100);
  sched.OnReady(1, kT0);
  sched.OnReady(2, kT0);
  sched.SetFixedPriority(1, 3);
  EXPECT_TRUE(sched.IsFixedPriority(1));
  EXPECT_EQ(sched.PickNext(kT0), 1u);
  // Demote back: thread 1 rejoins the lottery.
  sched.OnReady(1, kT0);
  sched.ClearFixedPriority(1);
  EXPECT_FALSE(sched.IsFixedPriority(1));
  const ThreadId first = sched.PickNext(kT0);
  EXPECT_TRUE(first == 1u || first == 2u);
}

TEST(Hybrid, LotteryShareUnaffectedByIdleFixedThread) {
  // A fixed-priority thread that is mostly blocked (a driver) steals only
  // the cycles it uses; the lottery world splits the rest by funding.
  HybridScheduler sched;
  Kernel kernel(&sched, KOpts());
  const ThreadId a = kernel.Spawn("a", std::make_unique<ComputeTask>());
  sched.economy()->FundThread(a, sched.economy()->table().base(), 300);
  const ThreadId b = kernel.Spawn("b", std::make_unique<ComputeTask>());
  sched.economy()->FundThread(b, sched.economy()->table().base(), 100);
  const ThreadId driver = kernel.Spawn(
      "driver", std::make_unique<InteractiveTask>(SimDuration::Millis(2),
                                                  SimDuration::Millis(98)));
  sched.SetFixedPriority(driver, 10);
  kernel.RunFor(SimDuration::Seconds(120));
  // Driver runs its 2% promptly.
  EXPECT_NEAR(kernel.CpuTime(driver).ToSecondsF(), 2.4, 0.3);
  // The rest splits 3:1.
  const double ratio =
      kernel.CpuTime(a).ToSecondsF() / kernel.CpuTime(b).ToSecondsF();
  EXPECT_NEAR(ratio, 3.0, 0.4);
}

TEST(Hybrid, FixedThreadCanStarveLotteryWorld) {
  // The hazard the paper accepted: an always-runnable fixed thread owns the
  // machine. Documented behaviour, so pinned by a test.
  HybridScheduler sched;
  Kernel kernel(&sched, KOpts());
  const ThreadId hog = kernel.Spawn("hog", std::make_unique<ComputeTask>());
  sched.SetFixedPriority(hog, 1);
  const ThreadId victim =
      kernel.Spawn("victim", std::make_unique<ComputeTask>());
  sched.economy()->FundThread(victim, sched.economy()->table().base(), 1000);
  kernel.RunFor(SimDuration::Seconds(10));
  EXPECT_EQ(kernel.CpuTime(victim).nanos(), 0);
}

TEST(Hybrid, RemoveThreadFromEitherBand) {
  HybridScheduler sched;
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  sched.SetFixedPriority(1, 1);
  sched.OnReady(1, kT0);
  sched.OnReady(2, kT0);
  sched.RemoveThread(1, kT0);
  sched.RemoveThread(2, kT0);
  EXPECT_EQ(sched.PickNext(kT0), kInvalidThreadId);
}

TEST(Hybrid, TickForwardsToLottery) {
  HybridScheduler sched;
  sched.Tick(kT0);  // must not throw
  EXPECT_EQ(sched.name(), "hybrid");
}

}  // namespace
}  // namespace lottery
