// The Section 6.1 wait-queue contract, checked once for every service built
// on WaitQueue (the mutex, the semaphore and the rwlock's writers) under
// both lottery schedulers (LotteryScheduler and a 4-CPU SmpScheduler):
//
//   * a blocked waiter's funding reaches the thread it waits for;
//   * a waiter killed in the slice that parks it leaves the queue, its
//     funding rolls back, and the next release wakes a live thread;
//   * destruction removes the service currency and every ticket the
//     service made;
//   * each wait lands in the service's *.wait_us histogram and in its
//     Tracer series.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/core/invariants.h"
#include "src/sched/smp/smp_scheduler.h"
#include "src/sim/fault.h"
#include "src/sim/rwlock.h"
#include "src/sim/semaphore.h"
#include "src/sim/sync.h"

namespace lottery {
namespace {

enum class Service { kMutex, kSemaphore, kRwLockWriter };
enum class Economy { kLottery, kSmp4 };

struct Row {
  Service service;
  Economy economy;
};

// What each service names after itself.
struct Names {
  std::string currency;
  std::string histogram;
  std::string series;  // Tracer series prefix; the thread name follows
};

Names NamesOf(Service service) {
  switch (service) {
    case Service::kMutex:
      return {"mutex:r", "mutex.wait_us", "mutex_wait:"};
    case Service::kSemaphore:
      return {"sem:r", "semaphore.wait_us", "sem_wait:"};
    case Service::kRwLockWriter:
      return {"rwlock:r", "rwlock.wait_us", "rwlock_wait:"};
  }
  return {};
}

// The three services behind one acquire/release interface. Acquire returns
// true when granted; otherwise the caller is parked and must block, and it
// holds the resource when it wakes.
class Resource {
 public:
  virtual ~Resource() = default;
  virtual bool Acquire(RunContext& ctx) = 0;
  virtual void Release(RunContext& ctx) = 0;
  virtual size_t num_waiters() const = 0;
};

// The adapters hold their capability across calls, which the static
// analysis cannot follow.
class MutexResource : public Resource {
 public:
  explicit MutexResource(Kernel* kernel) : mutex_(kernel, "r") {}
  NO_THREAD_SAFETY_ANALYSIS bool Acquire(RunContext& ctx) override {
    return mutex_.Acquire(ctx);
  }
  NO_THREAD_SAFETY_ANALYSIS void Release(RunContext& ctx) override {
    mutex_.Release(ctx);
  }
  size_t num_waiters() const override { return mutex_.num_waiters(); }

 private:
  SimMutex mutex_;
};

// One permit; whoever takes it becomes the beneficiary of waiter funding.
class SemaphoreResource : public Resource {
 public:
  explicit SemaphoreResource(Kernel* kernel) : sem_(kernel, "r", 1) {}
  bool Acquire(RunContext& ctx) override {
    if (!sem_.Wait(ctx)) {
      return false;
    }
    sem_.SetBeneficiary(ctx.self());
    return true;
  }
  void Release(RunContext& ctx) override { sem_.Signal(ctx); }
  size_t num_waiters() const override { return sem_.num_waiters(); }

 private:
  SimSemaphore sem_;
};

class RwLockWriterResource : public Resource {
 public:
  explicit RwLockWriterResource(Kernel* kernel) : lock_(kernel, "r") {}
  NO_THREAD_SAFETY_ANALYSIS bool Acquire(RunContext& ctx) override {
    return lock_.AcquireWrite(ctx);
  }
  NO_THREAD_SAFETY_ANALYSIS void Release(RunContext& ctx) override {
    lock_.ReleaseWrite(ctx);
  }
  size_t num_waiters() const override { return lock_.num_waiters(); }

 private:
  SimRwLock lock_;
};

// Takes the resource in its first slice and computes while holding it;
// once told to, releases it and exits.
class Holder : public ThreadBody {
 public:
  explicit Holder(Resource* resource) : resource_(resource) {}
  void Run(RunContext& ctx) override {
    if (!held_) {
      ASSERT_TRUE(resource_->Acquire(ctx));
      held_ = true;
    }
    if (release_) {
      ctx.Consume(SimDuration::Millis(1));
      resource_->Release(ctx);
      ctx.ExitThread();
      return;
    }
    ctx.Consume(ctx.remaining());
  }
  void ReleaseNextSlice() { release_ = true; }

 private:
  Resource* resource_;
  bool held_ = false;
  bool release_ = false;
};

// Asks for the resource and blocks until it is granted; then releases it
// and exits.
class Waiter : public ThreadBody {
 public:
  explicit Waiter(Resource* resource) : resource_(resource) {}
  void Run(RunContext& ctx) override {
    ctx.Consume(SimDuration::Millis(1));
    if (!parked_ && !resource_->Acquire(ctx)) {
      parked_ = true;
      ctx.Block();
      return;
    }
    got_ = true;
    resource_->Release(ctx);
    ctx.ExitThread();
  }
  bool got() const { return got_; }

 private:
  Resource* resource_;
  bool parked_ = false;
  bool got_ = false;
};

class WaitQueueContract : public ::testing::TestWithParam<Row> {
 protected:
  // Builds the scheduler, the kernel (optionally under a fault plan) and
  // the service.
  void Build(const std::string& plan = "") {
    const Row row = GetParam();
    if (row.economy == Economy::kLottery) {
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
    options.num_cpus = row.economy == Economy::kSmp4 ? 4 : 1;
    options.metrics = &reg_;
    if (!plan.empty()) {
      faults_ = std::make_unique<FaultInjector>(FaultPlan::Parse(plan), 5);
      options.faults = faults_.get();
    }
    kernel_ = std::make_unique<Kernel>(sched_.get(), options, &tracer_);
    switch (row.service) {
      case Service::kMutex:
        resource_ = std::make_unique<MutexResource>(kernel_.get());
        break;
      case Service::kSemaphore:
        resource_ = std::make_unique<SemaphoreResource>(kernel_.get());
        break;
      case Service::kRwLockWriter:
        resource_ = std::make_unique<RwLockWriterResource>(kernel_.get());
        break;
    }
  }

  template <typename Body>
  ThreadId Spawn(const std::string& name, int64_t tickets, Body** body) {
    auto owned = std::make_unique<Body>(resource_.get());
    *body = owned.get();
    const ThreadId tid = kernel_->Spawn(name, std::move(owned));
    sched_->FundThread(tid, sched_->table().base(), tickets);
    return tid;
  }

  // A holder funded 100 that owns the resource, then a waiter funded 300
  // parked behind it.
  void HoldThenPark() {
    holder_tid_ = Spawn("holder", 100, &holder_);
    kernel_->RunFor(SimDuration::Millis(50));
    waiter_tid_ = Spawn("waiter", 300, &waiter_);
    kernel_->RunFor(SimDuration::Millis(200));
    ASSERT_EQ(resource_->num_waiters(), 1u);
  }

  void ExpectEconomySound() {
    std::vector<std::string> findings;
    invariants::SweepTicketConservation(sched_->table(), &findings);
    invariants::SweepAcyclicity(sched_->table(), &findings);
    for (const std::string& finding : findings) {
      ADD_FAILURE() << finding;
    }
  }

  const Names names_ = NamesOf(GetParam().service);
  obs::Registry reg_;
  Tracer tracer_;
  std::unique_ptr<LotteryScheduler> sched_;
  std::unique_ptr<FaultInjector> faults_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<Resource> resource_;
  Holder* holder_ = nullptr;
  Waiter* waiter_ = nullptr;
  ThreadId holder_tid_ = kInvalidThreadId;
  ThreadId waiter_tid_ = kInvalidThreadId;
};

TEST_P(WaitQueueContract, WaiterFundingReachesTheHolder) {
  Build();
  ASSERT_NO_FATAL_FAILURE(HoldThenPark());
  // The blocked waiter's 300 flows through the service currency to the
  // thread it waits for.
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
  const ThreadId victim = Spawn("victim", 300, &waiter_);
  kernel_->RunFor(SimDuration::Millis(200));
  ASSERT_EQ(faults_->injections(FaultClass::kThreadCrash), 1u);
  EXPECT_FALSE(kernel_->Alive(victim));
  EXPECT_FALSE(waiter_->got());
  EXPECT_EQ(resource_->num_waiters(), 0u);
  // The victim's transfer is gone: its thread currency could be reclaimed
  // and the holder is back to its own funding.
  EXPECT_EQ(sched_->table().FindCurrency("thread:" + std::to_string(victim)),
            nullptr);
  EXPECT_EQ(sched_->ThreadValue(holder_tid_).base_units(), 100);
  ExpectEconomySound();

  // The next release wakes a live waiter, which takes the resource.
  Waiter* next = nullptr;
  const ThreadId next_tid = Spawn("next", 300, &next);
  kernel_->RunFor(SimDuration::Millis(200));
  ASSERT_EQ(resource_->num_waiters(), 1u);
  holder_->ReleaseNextSlice();
  kernel_->RunFor(SimDuration::Millis(200));
  EXPECT_TRUE(next->got());
  EXPECT_FALSE(kernel_->Alive(next_tid));
  EXPECT_EQ(resource_->num_waiters(), 0u);
  ExpectEconomySound();
}

TEST_P(WaitQueueContract, DestructionRemovesCurrencyAndTickets) {
  Build();
  ASSERT_NO_FATAL_FAILURE(HoldThenPark());
  ASSERT_NE(sched_->table().FindCurrency(names_.currency), nullptr);
  const size_t tickets = sched_->table().num_tickets();
  resource_.reset();
  EXPECT_EQ(sched_->table().FindCurrency(names_.currency), nullptr);
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
  const std::string series = names_.series + "waiter";
  ASSERT_TRUE(tracer_.HasSeries(series));
  const std::vector<Tracer::Sample>& samples = tracer_.Samples(series);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_GT(samples[0].value, 0.0);
  if (obs::kObsEnabled) {
    const obs::LatencyHistogram* wait_us = reg_.histogram(names_.histogram);
    ASSERT_EQ(wait_us->count(), 1u);
    EXPECT_NEAR(static_cast<double>(wait_us->sum()), samples[0].value * 1e6,
                1.0);
  }
}

std::string RowName(const ::testing::TestParamInfo<Row>& info) {
  std::string name;
  switch (info.param.service) {
    case Service::kMutex:
      name = "Mutex";
      break;
    case Service::kSemaphore:
      name = "Semaphore";
      break;
    case Service::kRwLockWriter:
      name = "RwLockWriter";
      break;
  }
  return name + (info.param.economy == Economy::kLottery ? "Lottery" : "Smp4");
}

INSTANTIATE_TEST_SUITE_P(
    Services, WaitQueueContract,
    ::testing::Values(Row{Service::kMutex, Economy::kLottery},
                      Row{Service::kMutex, Economy::kSmp4},
                      Row{Service::kSemaphore, Economy::kLottery},
                      Row{Service::kSemaphore, Economy::kSmp4},
                      Row{Service::kRwLockWriter, Economy::kLottery},
                      Row{Service::kRwLockWriter, Economy::kSmp4}),
    RowName);

}  // namespace
}  // namespace lottery
