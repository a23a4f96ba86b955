// The Section 6.1 wait-queue contract of SimMutex, checked under both
// lottery schedulers (LotteryScheduler and a 4-CPU SmpScheduler):
//
//   * a blocked waiter's funding reaches the mutex owner;
//   * a waiter killed in the slice that parks it leaves the queue, its
//     funding rolls back, and the next release wakes a live thread;
//   * destruction removes the mutex currency and every ticket the mutex
//     made;
//   * each wait lands in the mutex.wait_us histogram and in the
//     mutex_wait: Tracer series.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/invariants.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sim/fault.h"
#include "src/sim/sync.h"

namespace lottery {
namespace {

enum class Economy { kLottery, kSmp4 };

// Takes the mutex in its first slice and computes while holding it; once
// told to, releases it and exits. It holds the mutex across slices, which
// the static analysis cannot follow.
class Holder : public ThreadBody {
 public:
  explicit Holder(SimMutex* mutex) : mutex_(mutex) {}
  NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
    if (!held_) {
      ASSERT_TRUE(mutex_->Acquire(ctx));
      held_ = true;
    }
    if (release_) {
      ctx.Consume(SimDuration::Millis(1));
      mutex_->Release(ctx);
      ctx.ExitThread();
      return;
    }
    ctx.Consume(ctx.remaining());
  }
  void ReleaseNextSlice() { release_ = true; }

 private:
  SimMutex* mutex_;
  bool held_ = false;
  bool release_ = false;
};

// Asks for the mutex and blocks until it is granted; then releases it and
// exits. Ownership arrives with the wake, a cross-slice grant the static
// analysis cannot see.
class Waiter : public ThreadBody {
 public:
  explicit Waiter(SimMutex* mutex) : mutex_(mutex) {}
  NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
    ctx.Consume(SimDuration::Millis(1));
    if (!parked_ && !mutex_->Acquire(ctx)) {
      parked_ = true;
      ctx.Block();
      return;
    }
    got_ = true;
    mutex_->Release(ctx);
    ctx.ExitThread();
  }
  bool got() const { return got_; }

 private:
  SimMutex* mutex_;
  bool parked_ = false;
  bool got_ = false;
};

class WaitQueueContract : public ::testing::TestWithParam<Economy> {
 protected:
  // Builds the scheduler, the kernel (optionally under a fault plan) and
  // the mutex.
  void Build(const std::string& plan = "") {
    if (GetParam() == Economy::kLottery) {
      LotteryScheduler::Options options;
      options.seed = 61;
      sched_ = std::make_unique<LotteryScheduler>(options);
    } else {
      smp::SmpScheduler::Options options;
      options.num_cpus = 4;
      options.seed = 61;
      sched_ = std::make_unique<smp::SmpScheduler>(options);
    }
    Kernel::Options options;
    options.quantum = SimDuration::Millis(10);
    options.num_cpus = GetParam() == Economy::kSmp4 ? 4 : 1;
    options.metrics = &reg_;
    if (!plan.empty()) {
      faults_ = std::make_unique<FaultInjector>(FaultPlan::Parse(plan), 5);
      options.faults = faults_.get();
    }
    kernel_ = std::make_unique<Kernel>(sched_.get(), options, &tracer_);
    mutex_ = std::make_unique<SimMutex>(kernel_.get(), "r");
  }

  template <typename Body>
  ThreadId Spawn(const std::string& name, int64_t tickets, Body** body) {
    auto owned = std::make_unique<Body>(mutex_.get());
    *body = owned.get();
    const ThreadId tid = kernel_->Spawn(name, std::move(owned));
    sched_->FundThread(tid, sched_->table().base(), tickets);
    return tid;
  }

  // A holder funded 100 that owns the mutex, then a waiter funded 300
  // parked behind it.
  void HoldThenPark() {
    holder_tid_ = Spawn("holder", 100, &holder_);
    kernel_->RunFor(SimDuration::Millis(50));
    waiter_tid_ = Spawn("waiter", 300, &waiter_);
    kernel_->RunFor(SimDuration::Millis(200));
    ASSERT_EQ(mutex_->num_waiters(), 1u);
  }

  void ExpectEconomySound() {
    std::vector<std::string> findings;
    invariants::SweepTicketConservation(sched_->table(), &findings);
    invariants::SweepAcyclicity(sched_->table(), &findings);
    for (const std::string& finding : findings) {
      ADD_FAILURE() << finding;
    }
  }

  obs::Registry reg_;
  Tracer tracer_;
  std::unique_ptr<LotteryScheduler> sched_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<SimMutex> mutex_;
  Holder* holder_ = nullptr;
  Waiter* waiter_ = nullptr;
  ThreadId holder_tid_ = kInvalidThreadId;
  ThreadId waiter_tid_ = kInvalidThreadId;
};

TEST_P(WaitQueueContract, WaiterFundingReachesTheHolder) {
  Build();
  ASSERT_NO_FATAL_FAILURE(HoldThenPark());
  // The blocked waiter's 300 flows through the mutex currency to the owner.
  EXPECT_EQ(sched_->ThreadValue(holder_tid_).base_units(), 100 + 300);
  ExpectEconomySound();
}

TEST_P(WaitQueueContract, WaiterKilledWhileParkingLeavesTheQueue) {
  // One crash, at the end of the first unprotected slice from 50 ms on:
  // the waiter's first slice, the one that parks it.
  Build("crash:at=0.05");
  holder_tid_ = Spawn("holder", 100, &holder_);
  faults_->Protect(holder_tid_);
  kernel_->RunFor(SimDuration::Millis(50));
  const size_t currencies = sched_->table().num_currencies();
  const ThreadId victim = Spawn("victim", 300, &waiter_);
  kernel_->RunFor(SimDuration::Millis(200));
  ASSERT_EQ(faults_->injections(FaultClass::kThreadCrash), 1u);
  EXPECT_FALSE(kernel_->Alive(victim));
  EXPECT_FALSE(waiter_->got());
  EXPECT_EQ(mutex_->num_waiters(), 0u);
  // The victim's transfer is gone: its thread currency was reclaimed, not
  // left retired, and the holder is back to its own funding.
  EXPECT_EQ(sched_->table().num_currencies(), currencies);
  EXPECT_EQ(sched_->table().FindCurrency("thread:" + std::to_string(victim)),
            nullptr);
  EXPECT_EQ(sched_->ThreadValue(holder_tid_).base_units(), 100);
  ExpectEconomySound();

  // The next release wakes a live waiter, which takes the mutex.
  Waiter* next = nullptr;
  const ThreadId next_tid = Spawn("next", 300, &next);
  kernel_->RunFor(SimDuration::Millis(200));
  ASSERT_EQ(mutex_->num_waiters(), 1u);
  holder_->ReleaseNextSlice();
  kernel_->RunFor(SimDuration::Millis(200));
  EXPECT_TRUE(next->got());
  EXPECT_FALSE(kernel_->Alive(next_tid));
  EXPECT_EQ(mutex_->num_waiters(), 0u);
  ExpectEconomySound();
}

TEST_P(WaitQueueContract, DestructionRemovesCurrencyAndTickets) {
  Build();
  ASSERT_NO_FATAL_FAILURE(HoldThenPark());
  ASSERT_NE(sched_->table().FindCurrency("mutex:r"), nullptr);
  const size_t tickets = sched_->table().num_tickets();
  mutex_.reset();
  EXPECT_EQ(sched_->table().FindCurrency("mutex:r"), nullptr);
  // The waiter's transfer and the inheritance ticket.
  EXPECT_EQ(sched_->table().num_tickets(), tickets - 2);
  EXPECT_EQ(sched_->ThreadValue(holder_tid_).base_units(), 100);
  ExpectEconomySound();
}

TEST_P(WaitQueueContract, EachWaitIsRecorded) {
  Build();
  ASSERT_NO_FATAL_FAILURE(HoldThenPark());
  holder_->ReleaseNextSlice();
  kernel_->RunFor(SimDuration::Millis(200));
  ASSERT_TRUE(waiter_->got());
  const std::vector<Tracer::Sample>& samples =
      tracer_.Samples("mutex_wait:waiter");
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_GT(samples[0].value, 0.0);
  if (obs::kObsEnabled) {
    const obs::LatencyHistogram* wait_us = reg_.histogram("mutex.wait_us");
    ASSERT_EQ(wait_us->count(), 1u);
    EXPECT_NEAR(static_cast<double>(wait_us->sum()), samples[0].value * 1e6,
                1.0);
  }
}

std::string EconomyName(const ::testing::TestParamInfo<Economy>& info) {
  return info.param == Economy::kLottery ? "Lottery" : "Smp4";
}

INSTANTIATE_TEST_SUITE_P(Economies, WaitQueueContract,
                         ::testing::Values(Economy::kLottery, Economy::kSmp4),
                         EconomyName);

}  // namespace
}  // namespace lottery
