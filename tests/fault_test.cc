// Tests for the deterministic fault-injection subsystem: plan grammar,
// injector trigger semantics, bit-identical reproduction through the chaos
// scenario harness, and the service-level crash recovery paths (mutex
// owner death, currency retirement).

#include "src/sim/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "src/core/lottery_scheduler.h"
#include "src/sim/chaos.h"
#include "src/sim/kernel.h"
#include "src/sim/sync.h"

namespace lottery {
namespace {

// --- FaultPlan grammar ------------------------------------------------------

TEST(FaultPlan, ParsesTheDocumentedExample) {
  const FaultPlan plan = FaultPlan::Parse(
      "crash:p=0.001;rpc-drop:every=7;disk-timeout:p=0.2,delay_ms=2,retries=4");
  ASSERT_EQ(plan.specs.size(), 3u);
  EXPECT_EQ(plan.specs[0].fault, FaultClass::kThreadCrash);
  EXPECT_EQ(plan.specs[0].probability_ppm, 1000u);
  EXPECT_EQ(plan.specs[1].fault, FaultClass::kRpcDrop);
  EXPECT_EQ(plan.specs[1].every_nth, 7u);
  EXPECT_EQ(plan.specs[2].fault, FaultClass::kDiskTimeout);
  EXPECT_EQ(plan.specs[2].probability_ppm, 200000u);
  EXPECT_EQ(plan.specs[2].delay, SimDuration::Millis(2));
  EXPECT_EQ(plan.specs[2].max_retries, 4u);
}

TEST(FaultPlan, EmptyStringIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::Parse("").empty());
}

TEST(FaultPlan, RoundTripsThroughToString) {
  const std::string text =
      "crash:ppm=1500;spurious-wake:every=3;delayed-unblock:p=0.25,"
      "delay_ms=7;rpc-dup:at=0.5;disk-timeout:every=2,retries=2;revoke:ppm=9";
  const FaultPlan plan = FaultPlan::Parse(text);
  const std::string rendered = plan.ToString();
  const FaultPlan reparsed = FaultPlan::Parse(rendered);
  EXPECT_EQ(rendered, reparsed.ToString());
  ASSERT_EQ(plan.specs.size(), reparsed.specs.size());
  for (size_t i = 0; i < plan.specs.size(); ++i) {
    EXPECT_EQ(plan.specs[i].ToString(), reparsed.specs[i].ToString());
  }
}

TEST(FaultPlan, RejectsMalformedInput) {
  EXPECT_THROW(FaultPlan::Parse("warp-core-breach:p=0.5"),
               std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash:frequency=2"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash:delay_ms=5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash:p=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash:ppm=2000000"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash:p=abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::Parse("crash"), std::invalid_argument);
}

// --- Injector trigger semantics ---------------------------------------------

TEST(FaultInjector, EveryNthFiresOnExactMultiples) {
  FaultInjector injector(FaultPlan::Parse("rpc-drop:every=3"), 7);
  int fired = 0;
  for (int i = 1; i <= 12; ++i) {
    if (injector.Fire(FaultClass::kRpcDrop, SimTime::FromNanos(i))) {
      ++fired;
      EXPECT_EQ(i % 3, 0) << "fired at opportunity " << i;
    }
  }
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(injector.opportunities(FaultClass::kRpcDrop), 12u);
  EXPECT_EQ(injector.injections(FaultClass::kRpcDrop), 4u);
}

TEST(FaultInjector, OneShotAtFiresExactlyOnce) {
  FaultInjector injector(FaultPlan::Parse("crash:at_ns=5000"), 7);
  EXPECT_FALSE(injector.Fire(FaultClass::kThreadCrash, SimTime::FromNanos(4999)));
  EXPECT_TRUE(injector.Fire(FaultClass::kThreadCrash, SimTime::FromNanos(5000)));
  EXPECT_FALSE(injector.Fire(FaultClass::kThreadCrash, SimTime::FromNanos(9000)));
  EXPECT_EQ(injector.injections(FaultClass::kThreadCrash), 1u);
}

TEST(FaultInjector, ProbabilityOneAlwaysFiresAndZeroClassesAreInactive) {
  FaultInjector injector(FaultPlan::Parse("rpc-dup:p=1.0"), 7);
  EXPECT_TRUE(injector.active(FaultClass::kRpcDuplicate));
  EXPECT_FALSE(injector.active(FaultClass::kRpcDrop));
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(injector.Fire(FaultClass::kRpcDuplicate, SimTime::FromNanos(i)));
  }
  // An inactive class never fires and never counts opportunities.
  EXPECT_FALSE(injector.Fire(FaultClass::kRpcDrop, SimTime::Zero()));
  EXPECT_EQ(injector.opportunities(FaultClass::kRpcDrop), 0u);
}

TEST(FaultInjector, SameSeedSamePlanSameDecisions) {
  const FaultPlan plan = FaultPlan::Parse("rpc-drop:p=0.3;crash:p=0.05");
  FaultInjector a(plan, 99);
  FaultInjector b(plan, 99);
  for (int i = 0; i < 2000; ++i) {
    const SimTime now = SimTime::FromNanos(i * 1000);
    EXPECT_EQ(a.Fire(FaultClass::kRpcDrop, now),
              b.Fire(FaultClass::kRpcDrop, now));
    EXPECT_EQ(a.Fire(FaultClass::kThreadCrash, now),
              b.Fire(FaultClass::kThreadCrash, now));
  }
  EXPECT_EQ(a.total_injections(), b.total_injections());
  EXPECT_GT(a.total_injections(), 0u);
}

TEST(FaultInjector, ProtectedThreadsAreExempt) {
  FaultInjector injector(FaultPlan::Parse("crash:p=1.0"), 7);
  injector.Protect(3);
  EXPECT_TRUE(injector.IsProtected(3));
  EXPECT_FALSE(injector.IsProtected(4));
}

// --- Scenario determinism ---------------------------------------------------

constexpr const char* kRichPlan =
    "crash:p=0.004;spurious-wake:p=0.4;delayed-unblock:p=0.1;"
    "rpc-drop:every=5;rpc-dup:every=7;rpc-reorder:p=0.3;"
    "disk-timeout:p=0.3,retries=3;revoke:p=0.5";

TEST(ChaosScenario, SameSeedAndPlanReproduceBitIdentically) {
  for (const char* backend : {"list", "tree", "stride"}) {
    chaos::Scenario scenario;
    scenario.seed = 4242;
    scenario.backend = backend;
    scenario.plan = kRichPlan;
    scenario.num_threads = 12;
    scenario.horizon = SimDuration::Millis(300);

    const chaos::ScenarioResult first = chaos::RunScenario(scenario);
    const chaos::ScenarioResult second = chaos::RunScenario(scenario);
    EXPECT_EQ(first.trace_hash, second.trace_hash) << backend;
    EXPECT_EQ(first.dispatches, second.dispatches) << backend;
    EXPECT_EQ(first.injections, second.injections) << backend;
    EXPECT_EQ(first.live_threads, second.live_threads) << backend;
    for (const std::string& violation : first.violations) {
      ADD_FAILURE() << backend << ": " << violation;
    }
  }
}

// A retired backend name fails loudly: an old repro line such as
// `faultctl --backend=alias` must never quietly run a different backend.
TEST(ChaosScenario, RetiredBackendNameIsRejected) {
  chaos::Scenario scenario;
  scenario.backend = "alias";
  EXPECT_THROW(chaos::RunScenario(scenario), std::invalid_argument);
}

TEST(ChaosScenario, DifferentSeedsDiverge) {
  chaos::Scenario scenario;
  scenario.plan = kRichPlan;
  scenario.num_threads = 12;
  scenario.horizon = SimDuration::Millis(200);
  scenario.seed = 1;
  const uint64_t hash1 = chaos::RunScenario(scenario).trace_hash;
  scenario.seed = 2;
  const uint64_t hash2 = chaos::RunScenario(scenario).trace_hash;
  EXPECT_NE(hash1, hash2);
}

TEST(ChaosScenario, EmptyPlanInjectsNothingAndHoldsInvariants) {
  for (const char* backend : {"list", "tree", "stride"}) {
    chaos::Scenario scenario;
    scenario.seed = 7;
    scenario.backend = backend;
    scenario.num_threads = 12;
    scenario.horizon = SimDuration::Millis(300);
    const chaos::ScenarioResult result = chaos::RunScenario(scenario);
    EXPECT_EQ(result.injections, 0u) << backend;
    EXPECT_EQ(result.spurious_wakes, 0u) << backend;
    EXPECT_EQ(result.revocations, 0u) << backend;
    for (const std::string& violation : result.violations) {
      ADD_FAILURE() << backend << ": " << violation;
    }
  }
}

TEST(ChaosScenario, EveryFaultClassActuallyInjects) {
  const struct {
    FaultClass fault;
    const char* plan;
  } cases[] = {
      {FaultClass::kThreadCrash, "crash:every=40"},
      {FaultClass::kSpuriousWakeup, "spurious-wake:p=0.9"},
      {FaultClass::kDelayedUnblock, "delayed-unblock:p=0.3"},
      {FaultClass::kRpcDrop, "rpc-drop:every=3"},
      {FaultClass::kRpcDuplicate, "rpc-dup:every=3"},
      {FaultClass::kRpcReorder, "rpc-reorder:p=0.9"},
      {FaultClass::kDiskTimeout, "disk-timeout:p=0.5"},
      {FaultClass::kCurrencyRevoke, "revoke:p=0.9"},
  };
  for (const auto& test_case : cases) {
    chaos::Scenario scenario;
    scenario.seed = 11;
    scenario.num_threads = 12;
    scenario.horizon = SimDuration::Millis(400);
    scenario.plan = test_case.plan;
    const chaos::ScenarioResult result = chaos::RunScenario(scenario);
    EXPECT_GT(result.injected_by_class[static_cast<size_t>(test_case.fault)],
              0u)
        << test_case.plan;
    for (const std::string& violation : result.violations) {
      ADD_FAILURE() << test_case.plan << ": " << violation;
    }
  }
}

TEST(ChaosScenario, SmpRunsHoldInvariants) {
  chaos::Scenario scenario;
  scenario.seed = 5;
  scenario.num_cpus = 2;
  scenario.num_threads = 10;
  scenario.plan = kRichPlan;
  scenario.horizon = SimDuration::Millis(250);
  const chaos::ScenarioResult first = chaos::RunScenario(scenario);
  const chaos::ScenarioResult second = chaos::RunScenario(scenario);
  EXPECT_EQ(first.trace_hash, second.trace_hash);
  for (const std::string& violation : first.violations) {
    ADD_FAILURE() << violation;
  }
}

// --- Mutex owner death (the stranded-waiter-funding regression) -------------

// Holds the mutex forever once acquired (until crashed or told to exit).
class GreedyHolder : public ThreadBody {
 public:
  explicit GreedyHolder(SimMutex* mutex) : mutex_(mutex) {}
  // Holds across slices (and may die holding, by injected crash); the
  // cross-slice session is not statically analyzable.
  NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
    if (!holding_ && !waiting_) {
      ctx.Consume(SimDuration::Millis(1));
      if (mutex_->Acquire(ctx)) {
        holding_ = true;
      } else {
        waiting_ = true;
        ctx.Block();
        return;
      }
    }
    if (waiting_) {
      waiting_ = false;
      holding_ = true;
    }
    ctx.Consume(ctx.remaining());
  }
  bool holding() const { return holding_; }

 private:
  SimMutex* mutex_;
  bool holding_ = false;
  bool waiting_ = false;
};

// Waits for the mutex, then releases it and exits — the thread that would
// starve forever if a dead owner stranded the waiters.
class WaitThenRelease : public ThreadBody {
 public:
  explicit WaitThenRelease(SimMutex* mutex) : mutex_(mutex) {}
  // Ownership arrives via a wake from a dying owner — a cross-slice grant
  // the static analysis cannot see.
  NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
    ctx.Consume(SimDuration::Millis(1));
    if (woken_ || mutex_->Acquire(ctx)) {
      got_lock_ = true;
      mutex_->Release(ctx);
      ctx.ExitThread();
      return;
    }
    woken_ = true;
    ctx.Block();
  }
  bool got_lock() const { return got_lock_; }

 private:
  SimMutex* mutex_;
  bool woken_ = false;
  bool got_lock_ = false;
};

TEST(MutexOwnerExit, InjectedCrashOfOwnerPassesLockAndFundingToWaiter) {
  LotteryScheduler::Options sopts;
  sopts.seed = 21;
  LotteryScheduler scheduler(sopts);
  // One-shot crash at 350 ms: by then the greedy holder owns the mutex and
  // the waiter's transfer funds the mutex currency. The crash hits the only
  // dispatchable thread — the owner.
  FaultInjector injector(FaultPlan::Parse("crash:at=0.35"), 21);
  Kernel::Options kopts;
  kopts.quantum = SimDuration::Millis(100);
  kopts.faults = &injector;
  Kernel kernel(&scheduler, kopts);
  SimMutex mutex(&kernel, "m");

  auto holder_body = std::make_unique<GreedyHolder>(&mutex);
  auto waiter_body = std::make_unique<WaitThenRelease>(&mutex);
  GreedyHolder* holder = holder_body.get();
  WaitThenRelease* waiter = waiter_body.get();
  const ThreadId holder_tid = kernel.Spawn("holder", std::move(holder_body));
  const ThreadId waiter_tid = kernel.Spawn("waiter", std::move(waiter_body));
  injector.Protect(waiter_tid);
  scheduler.FundThread(holder_tid, scheduler.table().base(), 400);
  scheduler.FundThread(waiter_tid, scheduler.table().base(), 600);

  kernel.RunFor(SimDuration::Seconds(2));

  EXPECT_TRUE(holder->holding());
  EXPECT_FALSE(kernel.Alive(holder_tid));
  EXPECT_TRUE(waiter->got_lock())
      << "waiter never inherited the crashed owner's lock";
  EXPECT_FALSE(kernel.Alive(waiter_tid));  // released and exited
  EXPECT_EQ(mutex.owner(), kInvalidThreadId);
  EXPECT_EQ(mutex.num_waiters(), 0u);
  EXPECT_EQ(injector.injections(FaultClass::kThreadCrash), 1u);
  // Both thread currencies are fully reclaimed, not left retired: only the
  // base and the mutex currency survive, and the mutex inheritance ticket
  // is parked.
  EXPECT_EQ(scheduler.table().num_currencies(), 2u);
  EXPECT_NE(scheduler.table().FindCurrency("mutex:m"), nullptr);
}

TEST(MutexOwnerExit, VoluntaryExitWhileHoldingAlsoReleases) {
  // The same protocol violation without fault injection: a body that exits
  // while holding the lock.
  class ExitHolding : public ThreadBody {
   public:
    explicit ExitHolding(SimMutex* mutex) : mutex_(mutex) {}
    // Deliberately exits while holding (the regression under test).
    NO_THREAD_SAFETY_ANALYSIS void Run(RunContext& ctx) override {
      ctx.Consume(SimDuration::Millis(1));
      ASSERT_TRUE(mutex_->Acquire(ctx));
      ctx.ExitThread();
    }
    SimMutex* mutex_;
  };

  LotteryScheduler scheduler;
  Kernel kernel(&scheduler, Kernel::Options{});
  SimMutex mutex(&kernel, "m");
  auto waiter_body = std::make_unique<WaitThenRelease>(&mutex);
  WaitThenRelease* waiter = waiter_body.get();
  const ThreadId t1 =
      kernel.Spawn("exit-holding", std::make_unique<ExitHolding>(&mutex));
  const ThreadId t2 = kernel.Spawn("waiter", std::move(waiter_body));
  scheduler.FundThread(t1, scheduler.table().base(), 500);
  scheduler.FundThread(t2, scheduler.table().base(), 500);

  kernel.RunFor(SimDuration::Seconds(10));
  EXPECT_EQ(kernel.num_live_threads(), 0u);
  EXPECT_TRUE(waiter->got_lock());
  EXPECT_EQ(mutex.owner(), kInvalidThreadId);
}

// --- RetireCurrency ---------------------------------------------------------

TEST(RetireCurrency, LingersUntilLastIssuedTicketDies) {
  CurrencyTable table;
  Currency* currency = table.CreateCurrency("victim");
  Ticket* backing = table.CreateTicket(table.base(), 100);
  table.Fund(currency, backing);
  Ticket* issued_a = table.CreateTicket(currency, 50);
  Ticket* issued_b = table.CreateTicket(currency, 30);

  const size_t live = table.num_currencies();
  table.RetireCurrency(currency);
  EXPECT_TRUE(currency->retired());
  EXPECT_TRUE(currency->backing().empty());  // dead owner's funding withdrawn
  EXPECT_EQ(table.num_currencies(), live);
  // It lingers without its name, which a new currency may take meanwhile.
  EXPECT_EQ(table.FindCurrency("victim"), nullptr);
  Currency* successor = table.CreateCurrency("victim");
  EXPECT_EQ(table.FindCurrency("victim"), successor);
  // A retired currency accepts no new tickets or funding.
  EXPECT_THROW(table.CreateTicket(currency, 10), std::logic_error);
  Ticket* stray = table.CreateTicket(table.base(), 5);
  EXPECT_THROW(table.Fund(currency, stray), std::logic_error);
  table.DestroyTicket(stray);

  table.DestroyTicket(issued_a);
  EXPECT_EQ(table.num_currencies(), live + 1);
  table.DestroyTicket(issued_b);
  // Last issued ticket gone: the currency is reaped with it, and the
  // successor keeps the name.
  EXPECT_EQ(table.num_currencies(), live);
  EXPECT_EQ(table.FindCurrency("victim"), successor);
  table.DestroyCurrency(successor);
  EXPECT_EQ(table.FindCurrency("victim"), nullptr);
}

TEST(RetireCurrency, EquivalentToDestroyWhenNothingIssued) {
  CurrencyTable table;
  Currency* currency = table.CreateCurrency("empty");
  table.RetireCurrency(currency);
  EXPECT_EQ(table.num_currencies(), 1u);  // reclaimed, not lingering
  EXPECT_EQ(table.FindCurrency("empty"), nullptr);
}

TEST(RetireCurrency, RetiringAgainLeavesTheSuccessorsName) {
  CurrencyTable table;
  Currency* currency = table.CreateCurrency("victim");
  Client holder(&table, "holder");
  Ticket* issued = table.CreateTicket(currency, 50);
  holder.HoldTicket(issued);
  table.RetireCurrency(currency);
  Currency* successor = table.CreateCurrency("victim");
  table.RetireCurrency(currency);  // a no-op: the name is not its own
  EXPECT_EQ(table.FindCurrency("victim"), successor);
  EXPECT_EQ(table.num_currencies(), 3u);
  // The two share a name but are drawn as two nodes.
  const std::string dot = table.ToDot();
  EXPECT_NE(dot.find("\"victim\" [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("\"victim (retired)\" [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("\"holder\" -> \"victim (retired)\""), std::string::npos);

  table.DestroyTicket(issued);
  EXPECT_EQ(table.num_currencies(), 2u);
  EXPECT_EQ(table.FindCurrency("victim"), successor);
  table.DestroyCurrency(successor);
  EXPECT_EQ(table.num_currencies(), 1u);
}

TEST(RetireCurrency, RefusesTheBase) {
  CurrencyTable table;
  EXPECT_THROW(table.RetireCurrency(table.base()), std::invalid_argument);
}

}  // namespace
}  // namespace lottery
