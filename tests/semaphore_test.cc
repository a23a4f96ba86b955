// Tests for the lottery-scheduled counting semaphore.

#include "src/sim/semaphore.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/sched/round_robin.h"
#include "src/workloads/compute.h"

namespace lottery {
namespace {

Kernel::Options KOpts() {
  Kernel::Options o;
  o.quantum = SimDuration::Millis(100);
  return o;
}

// Records which thread each Signal wakes: the watched thread that flips
// from blocked to runnable across the call.
struct WakeLog {
  Kernel* kernel = nullptr;
  std::vector<ThreadId> watched;
  std::vector<bool> runnable;
  std::vector<std::string> woken;

  void Before() {
    runnable.clear();
    for (const ThreadId tid : watched) {
      runnable.push_back(kernel->ThreadRunnable(tid));
    }
  }
  void After() {
    for (size_t i = 0; i < watched.size(); ++i) {
      if (!runnable[i] && kernel->ThreadRunnable(watched[i])) {
        woken.push_back(kernel->ThreadName(watched[i]));
      }
    }
  }
};

// Producer: computes `cost` then Signals, forever.
class Producer : public ThreadBody {
 public:
  Producer(SimSemaphore* sem, SimDuration cost, WakeLog* log = nullptr)
      : sem_(sem), cost_(cost), log_(log) {}
  void Run(RunContext& ctx) override {
    for (;;) {
      left_ -= ctx.Consume(left_ < ctx.remaining() ? left_ : ctx.remaining());
      if (left_.nanos() > 0) {
        return;
      }
      if (log_ != nullptr) {
        log_->Before();
      }
      sem_->Signal(ctx);
      if (log_ != nullptr) {
        log_->After();
      }
      ++produced_;
      left_ = cost_;
      if (ctx.remaining().nanos() == 0) {
        return;
      }
    }
  }
  int64_t produced() const { return produced_; }

 private:
  SimSemaphore* sem_;
  SimDuration cost_;
  WakeLog* log_;
  SimDuration left_ = cost_;
  int64_t produced_ = 0;
};

// Consumer: Waits, then consumes `cost` of CPU per item.
class Consumer : public ThreadBody {
 public:
  Consumer(SimSemaphore* sem, SimDuration cost) : sem_(sem), cost_(cost) {}
  void Run(RunContext& ctx) override {
    for (;;) {
      if (waiting_) {
        waiting_ = false;  // woken holding a permit
        left_ = cost_;
      } else if (left_.nanos() == 0) {
        if (!sem_->Wait(ctx)) {
          waiting_ = true;
          ctx.Block();
          return;
        }
        left_ = cost_;
      }
      left_ -= ctx.Consume(left_ < ctx.remaining() ? left_ : ctx.remaining());
      if (left_.nanos() > 0) {
        return;
      }
      ++consumed_;
      ctx.AddProgress(1);
      if (ctx.remaining().nanos() == 0) {
        return;
      }
    }
  }
  int64_t consumed() const { return consumed_; }

 private:
  SimSemaphore* sem_;
  SimDuration cost_;
  SimDuration left_{};
  bool waiting_ = false;
  int64_t consumed_ = 0;
};

TEST(SimSemaphore, RejectsNegativePermits) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, KOpts());
  EXPECT_THROW(SimSemaphore(&kernel, "s", -1), std::invalid_argument);
}

TEST(SimSemaphore, InitialPermitsConsumedWithoutBlocking) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, KOpts());
  SimSemaphore sem(&kernel, "s", 2);
  class TakeTwo : public ThreadBody {
   public:
    explicit TakeTwo(SimSemaphore* s) : s_(s) {}
    void Run(RunContext& ctx) override {
      EXPECT_TRUE(s_->Wait(ctx));
      EXPECT_TRUE(s_->Wait(ctx));
      EXPECT_EQ(s_->permits(), 0);
      ctx.Consume(SimDuration::Millis(1));
      ctx.ExitThread();
    }
    SimSemaphore* s_;
  };
  kernel.Spawn("t", std::make_unique<TakeTwo>(&sem));
  kernel.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(sem.total_waits(), 2u);
}

TEST(SimSemaphore, FifoProducerConsumerUnderRoundRobin) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, KOpts());
  SimSemaphore sem(&kernel, "queue", 0);
  auto producer =
      std::make_unique<Producer>(&sem, SimDuration::Millis(20));
  auto consumer =
      std::make_unique<Consumer>(&sem, SimDuration::Millis(5));
  Producer* p = producer.get();
  Consumer* c = consumer.get();
  kernel.Spawn("producer", std::move(producer));
  kernel.Spawn("consumer", std::move(consumer));
  kernel.RunFor(SimDuration::Seconds(30));
  EXPECT_GT(p->produced(), 500);
  // The consumer keeps up (items are cheaper than production).
  EXPECT_NEAR(static_cast<double>(c->consumed()),
              static_cast<double>(p->produced()), 20.0);
}

TEST(SimSemaphore, CreatesAndRetiresCurrency) {
  LotteryScheduler sched;
  Kernel kernel(&sched, KOpts());
  {
    SimSemaphore sem(&kernel, "tmp", 0);
    EXPECT_NE(sched.table().FindCurrency("sem:tmp"), nullptr);
  }
  EXPECT_EQ(sched.table().FindCurrency("sem:tmp"), nullptr);
}

TEST(SimSemaphore, BeneficiaryInheritsWaiterFunding) {
  LotteryScheduler::Options lopts;
  lopts.seed = 3;
  LotteryScheduler sched(lopts);
  Kernel kernel(&sched, KOpts());
  SimSemaphore sem(&kernel, "queue", 0);

  // Slow producer with little funding; consumer with a lot.
  auto producer = std::make_unique<Producer>(&sem, SimDuration::Millis(50));
  const ThreadId ptid = kernel.Spawn("producer", std::move(producer));
  sched.FundThread(ptid, sched.table().base(), 100);
  sem.SetBeneficiary(ptid);

  auto consumer = std::make_unique<Consumer>(&sem, SimDuration::Millis(1));
  const ThreadId ctid = kernel.Spawn("consumer", std::move(consumer));
  sched.FundThread(ctid, sched.table().base(), 900);

  // A compute hog competes with the producer.
  const ThreadId hog = kernel.Spawn("hog", std::make_unique<ComputeTask>());
  sched.FundThread(hog, sched.table().base(), 500);

  kernel.RunFor(SimDuration::Seconds(5));
  // While the consumer blocks on the empty queue, its 900 flows to the
  // producer: producer value = own 100 + consumer 900.
  if (sem.num_waiters() == 1) {
    EXPECT_EQ(sched.ThreadValue(ptid).base_units(), 1000);
  }
  kernel.RunFor(SimDuration::Seconds(115));
  // With inheritance the producer runs at ~1000/1500 of the CPU despite its
  // own 100 tickets: it completes far more items than its bare share
  // (100/600 of the CPU -> ~400 items in 120 s) would allow.
  const SimDuration producer_cpu = kernel.CpuTime(ptid);
  EXPECT_GT(producer_cpu.ToSecondsF(), 60.0);
}

// Runs briefly, then exits.
class ExitSoon : public ThreadBody {
 public:
  void Run(RunContext& ctx) override {
    ctx.Consume(SimDuration::Millis(1));
    ctx.ExitThread();
  }
};

TEST(SimSemaphore, DeadBeneficiaryKeepsTheInheritanceTicket) {
  LotteryScheduler sched;
  Kernel kernel(&sched, KOpts());
  SimSemaphore sem(&kernel, "queue", 0);
  const ThreadId first =
      kernel.Spawn("first", std::make_unique<ExitSoon>());
  sched.FundThread(first, sched.table().base(), 100);
  sem.SetBeneficiary(first);
  kernel.RunFor(SimDuration::Seconds(1));
  ASSERT_FALSE(kernel.Alive(first));
  // The inheritance ticket survives its beneficiary, detached.
  EXPECT_EQ(sched.table().FindCurrency("sem:queue")->issued_amount(), 1000);

  // A new beneficiary inherits a blocked consumer's funding through it.
  auto producer = std::make_unique<Producer>(&sem, SimDuration::Seconds(10));
  const ThreadId next = kernel.Spawn("next", std::move(producer));
  sched.FundThread(next, sched.table().base(), 100);
  sem.SetBeneficiary(next);
  auto consumer = std::make_unique<Consumer>(&sem, SimDuration::Millis(1));
  const ThreadId ctid = kernel.Spawn("consumer", std::move(consumer));
  sched.FundThread(ctid, sched.table().base(), 900);
  kernel.RunFor(SimDuration::Seconds(1));
  ASSERT_EQ(sem.num_waiters(), 1u);
  EXPECT_EQ(sched.ThreadValue(next).base_units(), 1000);
}

TEST(SimSemaphore, WeightedWakeupPrefersFundedWaiters) {
  LotteryScheduler::Options lopts;
  lopts.seed = 9;
  LotteryScheduler sched(lopts);
  Kernel kernel(&sched, KOpts());
  SimSemaphore sem(&kernel, "queue", 0);

  // One item per ~2.3 quanta: each Signal then finds both consumers back
  // in the wait queue, so (almost) every item goes through a weighted draw.
  // (A fast producer that signals several times per slice hands the later
  // items to whichever single waiter remains, diluting the ratio.)
  auto producer = std::make_unique<Producer>(&sem, SimDuration::Millis(230));
  const ThreadId ptid = kernel.Spawn("producer", std::move(producer));
  sched.FundThread(ptid, sched.table().base(), 1000);
  sem.SetBeneficiary(ptid);

  // Two consumers with 3:1 funding competing for scarce items.
  auto rich = std::make_unique<Consumer>(&sem, SimDuration::Millis(1));
  auto poor = std::make_unique<Consumer>(&sem, SimDuration::Millis(1));
  Consumer* rc = rich.get();
  Consumer* pc = poor.get();
  const ThreadId rtid = kernel.Spawn("rich", std::move(rich));
  sched.FundThread(rtid, sched.table().base(), 750);
  const ThreadId ptid2 = kernel.Spawn("poor", std::move(poor));
  sched.FundThread(ptid2, sched.table().base(), 250);

  kernel.RunFor(SimDuration::Seconds(240));
  ASSERT_GT(pc->consumed(), 0);
  const double ratio = static_cast<double>(rc->consumed()) /
                       static_cast<double>(pc->consumed());
  // Items are handed out ~3:1 by the wakeup lottery.
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 4.5);
}

TEST(SimSemaphore, WakeupDrawOrderIsPinned) {
  // Four funded consumers wait on a slow producer, so each Signal draws
  // among three or four waiters. No figure bench or perfbench workload
  // replays this draw, so the exact wake order below pins its stream: a
  // change meant to be byte-identical must leave it as it is.
  LotteryScheduler::Options lopts;
  lopts.seed = 21;
  LotteryScheduler sched(lopts);
  Kernel kernel(&sched, KOpts());
  SimSemaphore sem(&kernel, "queue", 0);
  WakeLog log;
  log.kernel = &kernel;
  const ThreadId ptid = kernel.Spawn(
      "producer",
      std::make_unique<Producer>(&sem, SimDuration::Millis(230), &log));
  sched.FundThread(ptid, sched.table().base(), 1000);
  sem.SetBeneficiary(ptid);
  for (const int64_t tickets : {400, 300, 200, 100}) {
    const ThreadId tid = kernel.Spawn(
        "c" + std::to_string(tickets),
        std::make_unique<Consumer>(&sem, SimDuration::Millis(1)));
    sched.FundThread(tid, sched.table().base(), tickets);
    log.watched.push_back(tid);
  }
  kernel.RunFor(SimDuration::Seconds(10));
  ASSERT_GE(log.woken.size(), 24u);
  log.woken.resize(24);
  const std::vector<std::string> expected = {
      "c400", "c400", "c400", "c400", "c400", "c400", "c100", "c400", "c200",
      "c400", "c200", "c400", "c400", "c100", "c400", "c400", "c300", "c300",
      "c400", "c300", "c100", "c100", "c400", "c400"};
  EXPECT_EQ(log.woken, expected);
}

}  // namespace
}  // namespace lottery
