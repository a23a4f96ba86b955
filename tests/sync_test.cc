// Tests for the lottery-scheduled mutex (Section 6.1, Figures 10/11).

#include "src/sim/sync.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/sched/round_robin.h"
#include "src/workloads/mutex_workload.h"

namespace lottery {
namespace {

Kernel::Options KOpts() {
  Kernel::Options o;
  o.quantum = SimDuration::Millis(100);
  return o;
}

TEST(SimMutexFifo, UncontendedAcquireRelease) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, KOpts());
  SimMutex mutex(&kernel, "m");

  class Once : public ThreadBody {
   public:
    explicit Once(SimMutex* m) : m_(m) {}
    void Run(RunContext& ctx) override {
      EXPECT_TRUE(m_->Acquire(ctx));
      // Re-establishes the static lock session the EXPECT_TRUE wrapper
      // hides from the analysis; runtime-checks ownership too.
      m_->AssertHeld(ctx.self());
      EXPECT_EQ(m_->owner(), ctx.self());
      ctx.Consume(SimDuration::Millis(5));
      m_->Release(ctx);
      EXPECT_EQ(m_->owner(), kInvalidThreadId);
      ctx.ExitThread();
    }
    SimMutex* m_;
  };
  kernel.Spawn("once", std::make_unique<Once>(&mutex));
  kernel.RunFor(SimDuration::Seconds(1));
  EXPECT_EQ(mutex.acquisitions(), 1u);
}

TEST(SimMutexFifo, ContendedHandoffUnderRoundRobin) {
  RoundRobinScheduler sched;
  Kernel kernel(&sched, KOpts());
  SimMutex mutex(&kernel, "m");
  MutexTask::Options opts;
  opts.hold = SimDuration::Millis(10);
  opts.compute = SimDuration::Millis(10);
  auto a = std::make_unique<MutexTask>(&mutex, opts);
  auto b = std::make_unique<MutexTask>(&mutex, opts);
  MutexTask* ra = a.get();
  MutexTask* rb = b.get();
  kernel.Spawn("a", std::move(a));
  kernel.Spawn("b", std::move(b));
  kernel.RunFor(SimDuration::Seconds(10));
  EXPECT_GT(ra->cycles(), 100);
  EXPECT_GT(rb->cycles(), 100);
  // FIFO handoff: symmetric threads make near-equal progress.
  EXPECT_NEAR(static_cast<double>(ra->cycles()) /
                  static_cast<double>(rb->cycles()),
              1.0, 0.1);
}

class LotteryMutexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LotteryScheduler::Options opts;
    opts.seed = 20260707;
    sched_ = std::make_unique<LotteryScheduler>(opts);
    tracer_ = std::make_unique<Tracer>(SimDuration::Seconds(1));
    kernel_ = std::make_unique<Kernel>(sched_.get(), KOpts(), tracer_.get());
  }

  ThreadId SpawnFunded(const std::string& name, int64_t base_tickets,
                       std::unique_ptr<ThreadBody> body) {
    const ThreadId tid = kernel_->Spawn(name, std::move(body));
    sched_->FundThread(tid, sched_->table().base(), base_tickets);
    return tid;
  }

  std::unique_ptr<LotteryScheduler> sched_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<Kernel> kernel_;
};

TEST_F(LotteryMutexTest, AcquisitionRatioTracksFunding) {
  // Figure 11's setup, scaled down: two groups of four threads with 2:1
  // funding competing for one mutex; acquisition counts should approach
  // the paper's measured 1.8:1.
  SimMutex mutex(kernel_.get(), "m");
  MutexTask::Options opts;
  opts.hold = SimDuration::Millis(50);
  opts.compute = SimDuration::Millis(50);
  std::vector<MutexTask*> group_a, group_b;
  for (int i = 0; i < 4; ++i) {
    auto a = std::make_unique<MutexTask>(&mutex, opts);
    group_a.push_back(a.get());
    SpawnFunded("A" + std::to_string(i), 2000, std::move(a));
    auto b = std::make_unique<MutexTask>(&mutex, opts);
    group_b.push_back(b.get());
    SpawnFunded("B" + std::to_string(i), 1000, std::move(b));
  }
  kernel_->RunFor(SimDuration::Seconds(600));
  int64_t a_cycles = 0, b_cycles = 0;
  for (const auto* t : group_a) {
    a_cycles += t->cycles();
  }
  for (const auto* t : group_b) {
    b_cycles += t->cycles();
  }
  ASSERT_GT(b_cycles, 0);
  const double ratio =
      static_cast<double>(a_cycles) / static_cast<double>(b_cycles);
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.4);
}

TEST_F(LotteryMutexTest, RecursiveAcquireThrows) {
  SimMutex mutex(kernel_.get(), "m");
  class Recursive : public ThreadBody {
   public:
    explicit Recursive(SimMutex* m) : m_(m) {}
    void Run(RunContext& ctx) override {
      EXPECT_TRUE(m_->Acquire(ctx));
      m_->AssertHeld(ctx.self());
      EXPECT_THROW(m_->Acquire(ctx), std::logic_error);
      m_->Release(ctx);
      ctx.ExitThread();
    }
    SimMutex* m_;
  };
  SpawnFunded("rec", 100, std::make_unique<Recursive>(&mutex));
  kernel_->RunFor(SimDuration::Seconds(1));
}

TEST_F(LotteryMutexTest, ReleaseByNonOwnerThrows) {
  SimMutex mutex(kernel_.get(), "m");
  class BadRelease : public ThreadBody {
   public:
    explicit BadRelease(SimMutex* m) : m_(m) {}
    // Deliberately releases without holding (the throw is the assertion);
    // opt out of the static analysis that would reject exactly this.
    NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
      EXPECT_THROW(m_->Release(ctx), std::logic_error);
      ctx.ExitThread();
    }
    SimMutex* m_;
  };
  SpawnFunded("bad", 100, std::make_unique<BadRelease>(&mutex));
  kernel_->RunFor(SimDuration::Seconds(1));
}

}  // namespace
}  // namespace lottery
