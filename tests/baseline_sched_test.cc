// Tests for the baseline schedulers: round-robin, decay-usage timesharing,
// and stride.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/sched/decay_usage.h"
#include "src/sched/round_robin.h"
#include "src/sched/stride.h"

namespace lottery {
namespace {

const SimTime kT0 = SimTime::Zero();
const SimDuration kQuantum = SimDuration::Millis(100);

// Runs `rounds` full-quantum rounds where every thread in `ids` is kept
// runnable; returns dispatch counts.
template <typename Sched>
std::map<ThreadId, int> RunRounds(Sched& sched,
                                  const std::vector<ThreadId>& ids,
                                  int rounds) {
  SimTime now = kT0;
  for (ThreadId id : ids) {
    sched.OnReady(id, now);
  }
  std::map<ThreadId, int> counts;
  for (int i = 0; i < rounds; ++i) {
    const ThreadId id = sched.PickNext(now);
    if (id == kInvalidThreadId) {
      break;
    }
    now += kQuantum;
    sched.OnQuantumEnd(id, kQuantum, kQuantum, now);
    sched.OnReady(id, now);
    ++counts[id];
    if (i % 10 == 9) {
      sched.Tick(now);
    }
  }
  return counts;
}

// --- RoundRobin --------------------------------------------------------------

TEST(RoundRobin, FifoOrder) {
  RoundRobinScheduler rr;
  rr.AddThread(1, kT0);
  rr.AddThread(2, kT0);
  rr.AddThread(3, kT0);
  rr.OnReady(1, kT0);
  rr.OnReady(2, kT0);
  rr.OnReady(3, kT0);
  EXPECT_EQ(rr.PickNext(kT0), 1u);
  EXPECT_EQ(rr.PickNext(kT0), 2u);
  rr.OnReady(1, kT0);
  EXPECT_EQ(rr.PickNext(kT0), 3u);
  EXPECT_EQ(rr.PickNext(kT0), 1u);
  EXPECT_EQ(rr.PickNext(kT0), kInvalidThreadId);
}

TEST(RoundRobin, EqualSharesOverTime) {
  RoundRobinScheduler rr;
  for (ThreadId id : {1u, 2u, 3u}) {
    rr.AddThread(id, kT0);
  }
  const auto counts = RunRounds(rr, {1u, 2u, 3u}, 300);
  EXPECT_EQ(counts.at(1), 100);
  EXPECT_EQ(counts.at(2), 100);
  EXPECT_EQ(counts.at(3), 100);
}

TEST(RoundRobin, BlockedThreadLeavesQueue) {
  RoundRobinScheduler rr;
  rr.AddThread(1, kT0);
  rr.AddThread(2, kT0);
  rr.OnReady(1, kT0);
  rr.OnReady(2, kT0);
  rr.OnBlocked(1, kT0);
  EXPECT_EQ(rr.PickNext(kT0), 2u);
  EXPECT_EQ(rr.PickNext(kT0), kInvalidThreadId);
}

TEST(RoundRobin, DuplicateReadyIsIdempotent) {
  RoundRobinScheduler rr;
  rr.AddThread(1, kT0);
  rr.OnReady(1, kT0);
  rr.OnReady(1, kT0);
  EXPECT_EQ(rr.PickNext(kT0), 1u);
  EXPECT_EQ(rr.PickNext(kT0), kInvalidThreadId);
}

TEST(RoundRobin, RemoveThreadPurgesQueue) {
  RoundRobinScheduler rr;
  rr.AddThread(1, kT0);
  rr.OnReady(1, kT0);
  rr.RemoveThread(1, kT0);
  EXPECT_EQ(rr.PickNext(kT0), kInvalidThreadId);
}

TEST(RoundRobin, UnknownThreadThrows) {
  RoundRobinScheduler rr;
  EXPECT_THROW(rr.OnReady(42, kT0), std::invalid_argument);
  rr.AddThread(1, kT0);
  EXPECT_THROW(rr.AddThread(1, kT0), std::invalid_argument);
}

// --- DecayUsage ---------------------------------------------------------------

TEST(DecayUsage, EqualNiceRoughlyEqualShares) {
  DecayUsageScheduler du;
  du.AddThread(1, kT0);
  du.AddThread(2, kT0);
  const auto counts = RunRounds(du, {1u, 2u}, 1000);
  EXPECT_NEAR(counts.at(1), 500, 50);
  EXPECT_NEAR(counts.at(2), 500, 50);
}

TEST(DecayUsage, UsageRaisesPriorityValue) {
  DecayUsageScheduler du;
  du.AddThread(1, kT0);
  du.OnReady(1, kT0);
  ASSERT_EQ(du.PickNext(kT0), 1u);
  du.OnQuantumEnd(1, kQuantum, kQuantum, kT0);
  // Usage is charged in 10 ms ticks: a full 100 ms quantum is 10 ticks.
  EXPECT_DOUBLE_EQ(du.EstCpu(1), 10.0);
}

TEST(DecayUsage, TickDecaysUsage) {
  DecayUsageScheduler du;
  du.AddThread(1, kT0);
  du.OnReady(1, kT0);
  ASSERT_EQ(du.PickNext(kT0), 1u);
  du.OnQuantumEnd(1, kQuantum, kQuantum, kT0);
  du.OnReady(1, kT0);
  const double before = du.EstCpu(1);
  du.Tick(kT0 + SimDuration::Seconds(1));
  EXPECT_LT(du.EstCpu(1), before);
}

TEST(DecayUsage, NiceBiasesShares) {
  DecayUsageScheduler du;
  du.AddThread(1, kT0);
  du.AddThread(2, kT0);
  du.SetNice(1, 0);
  du.SetNice(2, 5);  // penalized
  const auto counts = RunRounds(du, {1u, 2u}, 1000);
  EXPECT_GT(counts.at(1), counts.at(2));
}

TEST(DecayUsage, NiceGivesNoPreciseRatioControl) {
  // The paper's core criticism: nice moves shares, but there is no nice
  // delta that yields a *specific* ratio like 2:1 — document by measuring
  // that nice=4 produces a lopsided split nowhere near 2:1.
  DecayUsageScheduler du;
  du.AddThread(1, kT0);
  du.AddThread(2, kT0);
  du.SetNice(2, 4);
  const auto counts = RunRounds(du, {1u, 2u}, 2000);
  const double ratio =
      static_cast<double>(counts.at(1)) / static_cast<double>(counts.at(2));
  EXPECT_TRUE(ratio < 1.7 || ratio > 2.4)
      << "nice happened to hit 2:1 (ratio=" << ratio
      << "); decay-usage offers no dial for that";
}

// --- Stride --------------------------------------------------------------------

TEST(Stride, ExactProportionsOverWindow) {
  StrideScheduler st;
  st.AddThread(1, kT0);
  st.AddThread(2, kT0);
  st.SetTickets(1, 3);
  st.SetTickets(2, 1);
  const auto counts = RunRounds(st, {1u, 2u}, 400);
  // Stride is deterministic: exactly 300/100 up to rounding at the window
  // edge.
  EXPECT_NEAR(counts.at(1), 300, 2);
  EXPECT_NEAR(counts.at(2), 100, 2);
}

TEST(Stride, ThreeWayProportions) {
  StrideScheduler st;
  for (ThreadId id : {1u, 2u, 3u}) {
    st.AddThread(id, kT0);
  }
  st.SetTickets(1, 3);
  st.SetTickets(2, 2);
  st.SetTickets(3, 1);
  const auto counts = RunRounds(st, {1u, 2u, 3u}, 600);
  EXPECT_NEAR(counts.at(1), 300, 3);
  EXPECT_NEAR(counts.at(2), 200, 3);
  EXPECT_NEAR(counts.at(3), 100, 3);
}

TEST(Stride, InterleavingIsSmooth) {
  // 2:1 must alternate A A B-ish, never long runs of the low-ticket thread.
  StrideScheduler st;
  st.AddThread(1, kT0);
  st.AddThread(2, kT0);
  st.SetTickets(1, 2);
  st.SetTickets(2, 1);
  st.OnReady(1, kT0);
  st.OnReady(2, kT0);
  SimTime now = kT0;
  int consecutive_b = 0, max_consecutive_b = 0;
  for (int i = 0; i < 300; ++i) {
    const ThreadId id = st.PickNext(now);
    now += kQuantum;
    st.OnQuantumEnd(id, kQuantum, kQuantum, now);
    st.OnReady(id, now);
    if (id == 2u) {
      max_consecutive_b = std::max(max_consecutive_b, ++consecutive_b);
    } else {
      consecutive_b = 0;
    }
  }
  EXPECT_LE(max_consecutive_b, 1);
}

TEST(Stride, BlockedThreadKeepsCredit) {
  StrideScheduler st;
  st.AddThread(1, kT0);
  st.AddThread(2, kT0);
  st.OnReady(1, kT0);
  st.OnReady(2, kT0);
  ASSERT_EQ(st.PickNext(kT0), 1u);
  st.OnQuantumEnd(1, kQuantum, kQuantum, kT0);
  st.OnBlocked(1, kT0);  // blocks with a full pass advance outstanding
  // Thread 2 runs alone for a while.
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(st.PickNext(kT0), 2u);
    st.OnQuantumEnd(2, kQuantum, kQuantum, kT0);
    st.OnReady(2, kT0);
  }
  // Rejoin: thread 1 must not get 10 quanta of back-pay...
  st.OnReady(1, kT0);
  int wins1 = 0;
  for (int i = 0; i < 20; ++i) {
    const ThreadId id = st.PickNext(kT0);
    st.OnQuantumEnd(id, kQuantum, kQuantum, kT0);
    st.OnReady(id, kT0);
    if (id == 1u) {
      ++wins1;
    }
  }
  EXPECT_NEAR(wins1, 10, 2);  // ...just its fair half share going forward
}

TEST(Stride, PartialQuantumChargesProportionally) {
  StrideScheduler st;
  st.AddThread(1, kT0);
  st.AddThread(2, kT0);
  st.OnReady(1, kT0);
  st.OnReady(2, kT0);
  // Thread 1 uses only 1/4 of each quantum; with equal tickets it should be
  // dispatched ~4x as often to consume equal CPU.
  std::map<ThreadId, int> dispatches;
  SimTime now = kT0;
  for (int i = 0; i < 500; ++i) {
    const ThreadId id = st.PickNext(now);
    const SimDuration used =
        (id == 1u) ? SimDuration::Millis(25) : kQuantum;
    now += used;
    st.OnQuantumEnd(id, used, kQuantum, now);
    st.OnReady(id, now);
    ++dispatches[id];
  }
  const double ratio = static_cast<double>(dispatches[1]) /
                       static_cast<double>(dispatches[2]);
  EXPECT_NEAR(ratio, 4.0, 0.3);
}

TEST(Stride, SetTicketsRejectsNonPositive) {
  StrideScheduler st;
  st.AddThread(1, kT0);
  EXPECT_THROW(st.SetTickets(1, 0), std::invalid_argument);
  EXPECT_THROW(st.SetTickets(1, -3), std::invalid_argument);
  st.SetTickets(1, 5);
  EXPECT_EQ(st.GetTickets(1), 5);
}

}  // namespace
}  // namespace lottery
