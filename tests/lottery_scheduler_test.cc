#include "src/core/lottery_scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/etrace/trace_buffer.h"
#include "src/obs/histogram.h"
#include "src/obs/registry.h"

namespace lottery {
namespace {

const SimTime kT0 = SimTime::Zero();
const SimDuration kQuantum = SimDuration::Millis(100);

TEST(LotteryScheduler, EmptyPicksInvalid) {
  LotteryScheduler sched;
  EXPECT_EQ(sched.PickNext(kT0), kInvalidThreadId);
}

TEST(LotteryScheduler, AddCreatesThreadCurrencyAndClient) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  EXPECT_NE(sched.thread_currency(1), nullptr);
  EXPECT_NE(sched.client(1), nullptr);
  EXPECT_EQ(sched.thread_currency(1)->name(), "thread:1");
  EXPECT_THROW(sched.AddThread(1, kT0), std::invalid_argument);
}

TEST(LotteryScheduler, UnknownThreadThrows) {
  LotteryScheduler sched;
  EXPECT_THROW(sched.OnReady(9, kT0), std::invalid_argument);
  EXPECT_THROW(sched.thread_currency(9), std::invalid_argument);
  // Records are indexed by id: adding thread 5 makes room for ids 0-4,
  // which stay unknown.
  sched.AddThread(5, kT0);
  for (const ThreadId id : {0u, 3u, 4u}) {
    EXPECT_THROW(sched.OnReady(id, kT0), std::invalid_argument) << id;
    EXPECT_THROW(sched.client(id), std::invalid_argument) << id;
    EXPECT_FALSE(sched.IsQueued(id)) << id;
    EXPECT_EQ(sched.ThreadBaseValue(id).raw(), 0) << id;
  }
  // Ids the table would have to grow to are refused outright.
  EXPECT_THROW(sched.AddThread(kInvalidThreadId, kT0), std::invalid_argument);
  EXPECT_THROW(sched.AddThread(LotteryScheduler::kMaxThreadId + 1, kT0),
               std::invalid_argument);
  EXPECT_THROW(sched.thread_currency(LotteryScheduler::kMaxThreadId + 1),
               std::invalid_argument);
}

TEST(LotteryScheduler, SingleReadyThreadAlwaysPicked) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  sched.FundThread(1, sched.table().base(), 100);
  sched.OnReady(1, kT0);
  EXPECT_EQ(sched.PickNext(kT0), 1u);
  // Picked thread is dequeued.
  EXPECT_EQ(sched.PickNext(kT0), kInvalidThreadId);
}

TEST(LotteryScheduler, ProportionsFollowFunding) {
  LotteryScheduler::Options opts;
  opts.seed = 777;
  LotteryScheduler sched(opts);
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  sched.FundThread(1, sched.table().base(), 300);
  sched.FundThread(2, sched.table().base(), 100);
  std::map<ThreadId, int> wins;
  constexpr int kRounds = 20000;
  for (int i = 0; i < kRounds; ++i) {
    sched.OnReady(1, kT0);
    sched.OnReady(2, kT0);
    const ThreadId w = sched.PickNext(kT0);
    ++wins[w];
    // Clean up queue for next round.
    sched.OnBlocked(1, kT0);
    sched.OnBlocked(2, kT0);
  }
  EXPECT_NEAR(static_cast<double>(wins[1]) / kRounds, 0.75, 0.02);
  EXPECT_EQ(sched.num_lotteries(), static_cast<uint64_t>(kRounds));
}

TEST(LotteryScheduler, BlockedThreadValueIsZero) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  sched.FundThread(1, sched.table().base(), 500);
  EXPECT_TRUE(sched.ThreadValue(1).IsZero());
  sched.OnReady(1, kT0);
  EXPECT_EQ(sched.ThreadValue(1).base_units(), 500);
  sched.OnBlocked(1, kT0);
  EXPECT_TRUE(sched.ThreadValue(1).IsZero());
}

TEST(LotteryScheduler, CompensationGrantedAndClearedOnDispatch) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  sched.FundThread(1, sched.table().base(), 400);
  sched.OnReady(1, kT0);
  ASSERT_EQ(sched.PickNext(kT0), 1u);
  // Used 1/5 of the quantum.
  sched.OnQuantumEnd(1, SimDuration::Millis(20), kQuantum, kT0);
  sched.OnReady(1, kT0);
  EXPECT_EQ(sched.ThreadValue(1).base_units(), 2000);
  // Dispatch clears it ("starts its next quantum").
  ASSERT_EQ(sched.PickNext(kT0), 1u);
  EXPECT_EQ(sched.ThreadValue(1).base_units(), 400);
}

TEST(LotteryScheduler, CompensationCanBeDisabled) {
  LotteryScheduler::Options opts;
  opts.compensation.enabled = false;
  LotteryScheduler sched(opts);
  sched.AddThread(1, kT0);
  sched.FundThread(1, sched.table().base(), 400);
  sched.OnReady(1, kT0);
  ASSERT_EQ(sched.PickNext(kT0), 1u);
  sched.OnQuantumEnd(1, SimDuration::Millis(20), kQuantum, kT0);
  sched.OnReady(1, kT0);
  EXPECT_EQ(sched.ThreadValue(1).base_units(), 400);
}

TEST(LotteryScheduler, ZeroFundingFallsBackToRoundRobin) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  // No funding beyond self tickets in unfunded thread currencies: all
  // values are zero.
  sched.OnReady(1, kT0);
  sched.OnReady(2, kT0);
  const ThreadId first = sched.PickNext(kT0);
  sched.OnReady(first, kT0);
  const ThreadId second = sched.PickNext(kT0);
  EXPECT_NE(first, second);  // rotation, not starvation
  EXPECT_GE(sched.num_zero_fallbacks(), 2u);
}

TEST(LotteryScheduler, RemoveThreadCleansUpCurrencyGraph) {
  LotteryScheduler sched;
  sched.AddThread(1, kT0);
  Currency* user = sched.table().CreateCurrency("user");
  sched.table().Fund(user, sched.table().CreateTicket(sched.table().base(),
                                                      1000));
  sched.FundThread(1, user, 100);
  const size_t tickets_before = sched.table().num_tickets();
  const size_t currencies_before = sched.table().num_currencies();
  sched.OnReady(1, kT0);
  sched.RemoveThread(1, kT0);
  EXPECT_EQ(sched.table().num_currencies(), currencies_before - 1);
  EXPECT_EQ(sched.table().FindCurrency("thread:1"), nullptr);
  // Self ticket + funding ticket retired.
  EXPECT_EQ(sched.table().num_tickets(), tickets_before - 2);
  EXPECT_THROW(sched.client(1), std::invalid_argument);
  EXPECT_THROW(sched.RemoveThread(1, kT0), std::invalid_argument);

  // The id can be added again: a fresh currency and client in the same
  // record, whose value changes reach its slot while it is queued.
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  EXPECT_NE(sched.table().FindCurrency("thread:1"), nullptr);
  sched.FundThread(2, sched.table().base(), 300);
  sched.OnReady(1, kT0);
  sched.OnReady(2, kT0);
  EXPECT_TRUE(sched.IsQueued(1));
  sched.FundThread(1, user, 100);
  EXPECT_GT(sched.ThreadValue(1).raw(), 0);
  const uint64_t runnable = sched.RunnableTickets();
  EXPECT_EQ(runnable, sched.ThreadValue(1).raw_unsigned() +
                          sched.ThreadValue(2).raw_unsigned());
  const auto snapshot = sched.QueuedSnapshot();

  // A client made directly on the table is not the scheduler's: dirtying
  // it changes no queued weight.
  Client stranger(&sched.table(), "stranger");
  stranger.HoldTicket(sched.table().CreateTicket(sched.table().base(), 500));
  stranger.SetActive(true);
  sched.table().SetAmount(stranger.tickets()[0], 700);
  EXPECT_GT(stranger.Value().raw(), 0);
  EXPECT_EQ(sched.RunnableTickets(), runnable);
  EXPECT_EQ(sched.QueuedSnapshot(), snapshot);
}

TEST(LotteryScheduler, ReAddsIdWhileItsRetiredCurrencyLingers) {
  LotteryScheduler sched;
  CurrencyTable& table = sched.table();
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  // Thread 2 holds a ticket issued in thread 1's currency, as an in-flight
  // transfer from 1 would, so removing 1 retires its currency.
  Ticket* in_flight = sched.FundThread(2, sched.thread_currency(1), 50);
  const Currency* retired = sched.thread_currency(1);
  sched.RemoveThread(1, kT0);
  ASSERT_TRUE(retired->retired());
  EXPECT_EQ(table.FindCurrency("thread:1"), nullptr);

  sched.AddThread(1, kT0);
  Currency* fresh = sched.thread_currency(1);
  EXPECT_NE(fresh, retired);
  EXPECT_EQ(table.FindCurrency("thread:1"), fresh);
  sched.FundThread(1, table.base(), 100);
  sched.FundThread(2, table.base(), 300);
  sched.OnReady(1, kT0);
  sched.OnReady(2, kT0);
  EXPECT_EQ(sched.ThreadValue(1).raw_unsigned(),
            Funding::FromBase(100).raw_unsigned());

  // The retired currency's last issued ticket still reclaims it, and the
  // new currency keeps the name.
  const size_t currencies = table.num_currencies();
  table.DestroyTicket(in_flight);
  EXPECT_EQ(table.num_currencies(), currencies - 1);
  EXPECT_EQ(table.FindCurrency("thread:1"), fresh);
  EXPECT_EQ(sched.thread_currency(1), fresh);
  EXPECT_EQ(sched.ThreadValue(1).raw_unsigned(),
            Funding::FromBase(100).raw_unsigned());
  sched.RemoveThread(1, kT0);
  EXPECT_EQ(table.FindCurrency("thread:1"), nullptr);
}

TEST(LotteryScheduler, HierarchicalFundingIsProportional) {
  // Two users with 2:1 base funding; each runs one thread.
  LotteryScheduler::Options opts;
  opts.seed = 31;
  LotteryScheduler sched(opts);
  Currency* alice = sched.table().CreateCurrency("alice");
  Currency* bob = sched.table().CreateCurrency("bob");
  sched.table().Fund(alice,
                     sched.table().CreateTicket(sched.table().base(), 200));
  sched.table().Fund(bob,
                     sched.table().CreateTicket(sched.table().base(), 100));
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  sched.FundThread(1, alice, 50);
  sched.FundThread(2, bob, 50);
  int wins1 = 0;
  constexpr int kRounds = 30000;
  for (int i = 0; i < kRounds; ++i) {
    sched.OnReady(1, kT0);
    sched.OnReady(2, kT0);
    if (sched.PickNext(kT0) == 1u) {
      ++wins1;
    }
    sched.OnBlocked(1, kT0);
    sched.OnBlocked(2, kT0);
  }
  EXPECT_NEAR(static_cast<double>(wins1) / kRounds, 2.0 / 3.0, 0.02);
}

TEST(LotteryScheduler, NameIsLottery) {
  LotteryScheduler sched;
  EXPECT_EQ(sched.name(), "lottery");
}

TEST(LotteryScheduler, MetricsMatchGroundTruth) {
  // Scripted run against an isolated registry: the obs counters must agree
  // exactly with what the script did.
  obs::Registry metrics;
  LotteryScheduler::Options opts;
  opts.seed = 123;
  opts.metrics = &metrics;
  LotteryScheduler sched(opts);
  sched.AddThread(1, kT0);
  sched.AddThread(2, kT0);
  sched.FundThread(1, sched.table().base(), 300);
  sched.FundThread(2, sched.table().base(), 100);

  constexpr uint64_t kRounds = 50;
  uint64_t fractional_rounds = 0;
  for (uint64_t i = 0; i < kRounds; ++i) {
    sched.OnReady(1, kT0);
    sched.OnReady(2, kT0);
    const ThreadId w = sched.PickNext(kT0);
    ASSERT_NE(w, kInvalidThreadId);
    // Alternate full and fractional quanta; only fractional ones earn a
    // compensation ticket.
    const bool fractional = (i % 2) == 1;
    if (fractional) {
      ++fractional_rounds;
    }
    sched.OnQuantumEnd(w, fractional ? SimDuration::Millis(20) : kQuantum,
                       kQuantum, kT0);
    sched.OnBlocked(1, kT0);
    sched.OnBlocked(2, kT0);
  }

  const auto hooked = [](uint64_t n) { return obs::kObsEnabled ? n : 0; };
  ASSERT_NE(metrics.FindCounter("lottery.draws"), nullptr);
  EXPECT_EQ(metrics.FindCounter("lottery.draws")->value(), hooked(kRounds));
  EXPECT_EQ(metrics.FindCounter("lottery.compensation_grants")->value(),
            hooked(fractional_rounds));
  EXPECT_EQ(metrics.FindCounter("lottery.zero_fallbacks")->value(), 0u);
  EXPECT_EQ(metrics.FindCounter("lottery.transfers")->value(), 0u);
  // The draw-cost histogram sees every draw (sampled 1-in-kSamplePeriod
  // into the buckets, first event always recorded).
  const obs::LatencyHistogram* cost =
      metrics.FindHistogram("lottery.draw_cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->events(), hooked(kRounds));
  EXPECT_EQ(cost->count(),
            (hooked(kRounds) + obs::LatencyHistogram::kSamplePeriod - 1) /
                obs::LatencyHistogram::kSamplePeriod);
  // num_lotteries is the scheduler's own (unhooked) tally of the same event.
  EXPECT_EQ(sched.num_lotteries(), kRounds);
}

TEST(LotteryScheduler, TransferCounterTracksNotes) {
  obs::Registry metrics;
  LotteryScheduler::Options opts;
  opts.metrics = &metrics;
  LotteryScheduler sched(opts);
  sched.NoteTransfer();
  sched.NoteTransfer();
  EXPECT_EQ(metrics.FindCounter("lottery.transfers")->value(),
            obs::kObsEnabled ? 2u : 0u);
}

TEST(LotteryScheduler, ListBackendRefusesPastThreadLimit) {
  // The list's O(n) draw is ~280x the tree's at 10k clients; past the
  // limit AddThread must throw rather than silently degrade.
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kList;
  opts.list_max_threads = 8;
  LotteryScheduler sched(opts);
  for (int i = 0; i < 8; ++i) {
    sched.AddThread(static_cast<ThreadId>(i + 1), SimTime::Zero());
  }
  EXPECT_THROW(sched.AddThread(9, SimTime::Zero()), std::length_error);
  // Existing threads keep working.
  sched.OnReady(1, SimTime::Zero());
  EXPECT_EQ(sched.PickNext(SimTime::Zero()), 1u);
}

TEST(LotteryScheduler, ListBackendUnlimitedWhenDisabled) {
  LotteryScheduler::Options opts;
  opts.backend = RunQueueBackend::kList;
  opts.list_max_threads = 0;  // escape hatch for list-scaling benches
  LotteryScheduler sched(opts);
  for (int i = 0; i < 40; ++i) {
    sched.AddThread(static_cast<ThreadId>(i + 1), SimTime::Zero());
  }
  sched.OnReady(3, SimTime::Zero());
  EXPECT_EQ(sched.PickNext(SimTime::Zero()), 3u);
}

// --- Value sync: the queue's weights follow the currency graph -------------
//
// Both backends draw over slot weights the scheduler re-pushes from the
// currency table's dirty marks. After each mutation, RunnableTickets() must
// equal a brute-force sum of the queued threads' current values, and the
// next pick's drawn value (its etrace decision event) must resolve to the
// recorded winner by a prefix scan of QueuedSnapshot(), taken just before.

class QueueValueSync : public ::testing::TestWithParam<RunQueueBackend> {
 protected:
  QueueValueSync() : trace_(1 << 16, etrace::kCatLottery) {
    LotteryScheduler::Options opts;
    opts.backend = GetParam();
    opts.seed = 42;
    opts.metrics = &metrics_;
    opts.trace = &trace_;
    sched_ = std::make_unique<LotteryScheduler>(opts);
  }

  void SetUp() override {
    if (!obs::kObsEnabled) {
      GTEST_SKIP() << "obs hooks compiled out (no decision events)";
    }
  }

  CurrencyTable& table() { return sched_->table(); }

  // Adds a ready thread funded with `amount` tickets in `denomination`
  // (base when null); returns the funding ticket.
  Ticket* AddFunded(ThreadId id, int64_t amount,
                    Currency* denomination = nullptr) {
    sched_->AddThread(id, kT0);
    Ticket* ticket = sched_->FundThread(
        id, denomination != nullptr ? denomination : table().base(), amount);
    sched_->OnReady(id, kT0);
    ids_.push_back(id);
    return ticket;
  }

  // Checks both properties, then requeues the pick's winner after a full
  // quantum (no compensation), so the queue holds the same threads again.
  void ExpectQueueFollowsValues() {
    uint64_t brute = 0;
    for (const ThreadId id : ids_) {
      if (sched_->IsQueued(id)) {
        brute += sched_->client(id)->Value().raw_unsigned();
      }
    }
    ASSERT_EQ(sched_->RunnableTickets(), brute);

    const auto snapshot = sched_->QueuedSnapshot();
    const ThreadId winner = sched_->PickNext(kT0);
    ASSERT_NE(winner, kInvalidThreadId);
    ASSERT_GT(trace_.size(), 0u);
    const etrace::Event& decision = trace_.At(trace_.size() - 1);
    ASSERT_EQ(decision.type,
              static_cast<uint16_t>(etrace::EventType::kDecision));
    EXPECT_EQ(decision.a, winner);
    EXPECT_EQ(decision.v2, brute);
    ThreadId derived = kInvalidThreadId;
    uint64_t sum = 0;
    for (const auto& [id, weight] : snapshot) {
      sum += weight;
      if (sum > decision.v1) {
        derived = id;
        break;
      }
    }
    EXPECT_EQ(derived, winner) << "drawn value " << decision.v1;
    sched_->OnQuantumEnd(winner, kQuantum, kQuantum, kT0);
    sched_->OnReady(winner, kT0);
  }

  uint64_t Units(int64_t base) const {
    return Funding::FromBase(base).raw_unsigned();
  }

  obs::Registry metrics_;
  etrace::TraceBuffer trace_;
  std::unique_ptr<LotteryScheduler> sched_;
  std::vector<ThreadId> ids_;
};

TEST_P(QueueValueSync, InflationDeactivationCompensationAndRequeue) {
  Ticket* a = AddFunded(1, 10);
  AddFunded(2, 30);
  EXPECT_EQ(sched_->RunnableTickets(), Units(40));
  ExpectQueueFollowsValues();
  table().SetAmount(a, 25);  // inflation
  EXPECT_EQ(sched_->RunnableTickets(), Units(55));
  ExpectQueueFollowsValues();
  sched_->client(2)->SetActive(false);  // queued but worth zero
  EXPECT_EQ(sched_->RunnableTickets(), Units(25));
  ExpectQueueFollowsValues();
  sched_->client(2)->SetActive(true);
  EXPECT_EQ(sched_->RunnableTickets(), Units(55));
  ExpectQueueFollowsValues();
  sched_->client(1)->SetCompensation(2, 1);  // queued, compensated
  EXPECT_EQ(sched_->RunnableTickets(), Units(80));
  ExpectQueueFollowsValues();
  sched_->client(1)->ClearCompensation();
  sched_->OnBlocked(2, kT0);  // leaves the queue
  EXPECT_EQ(sched_->RunnableTickets(), Units(25));
  ExpectQueueFollowsValues();
  sched_->OnReady(2, kT0);  // and comes back
  EXPECT_EQ(sched_->RunnableTickets(), Units(55));
  ExpectQueueFollowsValues();
}

TEST_P(QueueValueSync, MutationsWhileWorthZeroSurfaceOnReactivation) {
  // A thread whose funding changes while it is worth zero must count at the
  // new value as soon as it competes again: queued but deactivated, and
  // blocked out of the queue.
  Ticket* a = AddFunded(1, 10);
  Ticket* b = AddFunded(2, 10);
  sched_->client(1)->SetActive(false);
  EXPECT_EQ(sched_->RunnableTickets(), Units(10));
  table().SetAmount(a, 70);
  ExpectQueueFollowsValues();
  sched_->client(1)->SetActive(true);
  EXPECT_EQ(sched_->RunnableTickets(), Units(80));
  ExpectQueueFollowsValues();
  sched_->OnBlocked(2, kT0);
  table().SetAmount(b, 40);
  ExpectQueueFollowsValues();
  sched_->OnReady(2, kT0);
  EXPECT_EQ(sched_->RunnableTickets(), Units(110));
  ExpectQueueFollowsValues();
}

TEST_P(QueueValueSync, SharedCurrencySumsExactly) {
  // Fixed-point values (not whole base units) must sum exactly: 1000 base
  // split three ways, then unevenly, then re-divided as siblings block and
  // wake (deactivation dilutes the shared currency for the others).
  Currency* shared = table().CreateCurrency("shared");
  table().Fund(shared, table().CreateTicket(table().base(), 1000));
  std::vector<Ticket*> funding;
  for (ThreadId id = 1; id <= 3; ++id) {
    funding.push_back(AddFunded(id, 1, shared));
  }
  ExpectQueueFollowsValues();
  table().SetAmount(funding[1], 5);
  ExpectQueueFollowsValues();
  sched_->OnBlocked(3, kT0);
  ExpectQueueFollowsValues();
  sched_->OnReady(3, kT0);
  ExpectQueueFollowsValues();
  for (int i = 0; i < 20; ++i) {
    ExpectQueueFollowsValues();
  }
}

TEST_P(QueueValueSync, MarksOffTheQueueNeverReachASlot) {
  // A sync can run while marked threads are off the queue (the balancer
  // reads RunnableTickets while CPUs run): the running winner earns
  // compensation and is refunded, and a blocked thread is refunded after a
  // newcomer took its recycled slot. None of these values may land in a
  // slot until the thread is queued again.
  std::vector<Ticket*> funding;
  for (ThreadId id = 1; id <= 3; ++id) {
    funding.push_back(AddFunded(id, 10 * static_cast<int64_t>(id)));
  }
  const ThreadId running = sched_->PickNext(kT0);
  ASSERT_NE(running, kInvalidThreadId);
  sched_->OnQuantumEnd(running, SimDuration::Millis(20), kQuantum, kT0);
  table().SetAmount(funding[running - 1], 45);
  const ThreadId blocked = running == 1 ? 2 : 1;
  sched_->OnBlocked(blocked, kT0);
  AddFunded(4, 40);
  table().SetAmount(funding[blocked - 1], 25);
  ExpectQueueFollowsValues();
  sched_->OnReady(blocked, kT0);
  sched_->OnReady(running, kT0);
  ExpectQueueFollowsValues();
}

INSTANTIATE_TEST_SUITE_P(
    Backends, QueueValueSync,
    ::testing::Values(RunQueueBackend::kList, RunQueueBackend::kTree),
    [](const auto& param_info) {
      return std::string(param_info.param == RunQueueBackend::kList ? "List"
                                                                    : "Tree");
    });

}  // namespace
}  // namespace lottery
