#include "src/core/lottery_scheduler.h"

#include <gtest/gtest.h>

#include <map>

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
  sched.OnReady(1, kT0);
  sched.RemoveThread(1, kT0);
  EXPECT_EQ(sched.table().FindCurrency("thread:1"), nullptr);
  // Self ticket + funding ticket retired.
  EXPECT_EQ(sched.table().num_tickets(), tickets_before - 2);
  EXPECT_THROW(sched.client(1), std::invalid_argument);
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

}  // namespace
}  // namespace lottery
