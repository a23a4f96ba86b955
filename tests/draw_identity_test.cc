// Differential proof that speculative draw batching is invisible: batched
// draws must produce the exact winner sequence — and leave the RNG in the
// exact state — of unbatched draws, across 32 seeds, at the scheduler layer
// (batch_window=8 vs batching disabled), including runs with mid-stream
// ticket mutations and external consumers of the scheduler's RNG. The
// TreeLottery sweep the batch resolves through (ResolveValues) must agree
// with one SlotForValue descent per value.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/lottery_scheduler.h"
#include "src/core/tree_lottery.h"
#include "src/util/fastrand.h"

namespace lottery {
namespace {

const SimTime kT0 = SimTime::Zero();
const SimDuration kQuantum = SimDuration::Millis(100);

TEST(DrawIdentity, ResolveValuesMatchesSlotForValue) {
  for (uint32_t seed = 1; seed <= 32; ++seed) {
    TreeLottery tree;
    FastRand shape(seed * 31u + 7u);
    const size_t n = 1 + shape.NextBelow(60);
    for (size_t i = 0; i < n; ++i) {
      tree.Add(shape.NextBelow(40));  // zero weights allowed
    }
    if (tree.total() == 0) {
      continue;
    }
    std::vector<uint64_t> values;
    for (int i = 0; i < 100; ++i) {
      values.push_back(shape.NextBelow64(tree.total()));
    }
    std::vector<size_t> slots(values.size());
    tree.ResolveValues(values.size(), values.data(), slots.data());
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(slots[i], tree.SlotForValue(values[i]));
    }
  }
}

// Drives one scheduler through `picks` dispatch cycles and returns the
// winner sequence. `mutate_every` > 0 reprices a thread's funding ticket on
// that cadence (forcing batch flushes); `poke_rng_every` > 0 draws from the
// scheduler's own RNG between picks on that cadence (the kernel services
// do this for jitter), which must invalidate — never corrupt — a batch.
std::vector<ThreadId> RunSchedule(uint32_t seed, uint32_t batch_window,
                                  int threads, int picks, int mutate_every,
                                  int poke_rng_every) {
  obs::Registry registry;
  LotteryScheduler::Options opts;
  opts.seed = seed;
  opts.backend = RunQueueBackend::kTree;
  opts.batch_window = batch_window;
  opts.metrics = &registry;
  LotteryScheduler sched(opts);
  std::vector<Ticket*> funding;
  for (int i = 0; i < threads; ++i) {
    const ThreadId id = static_cast<ThreadId>(i + 1);
    sched.AddThread(id, kT0);
    funding.push_back(sched.FundThread(id, sched.table().base(),
                                       100 + (i % 13) * 50));
    sched.OnReady(id, kT0);
  }
  std::vector<ThreadId> winners;
  for (int i = 0; i < picks; ++i) {
    if (mutate_every > 0 && i % mutate_every == mutate_every - 1) {
      Ticket* t = funding[static_cast<size_t>(i) % funding.size()];
      sched.table().SetAmount(t, 100 + (i % 29) * 10);
    }
    if (poke_rng_every > 0 && i % poke_rng_every == poke_rng_every - 1) {
      sched.rng().Next();
    }
    const ThreadId winner = sched.PickNext(kT0);
    EXPECT_NE(winner, kInvalidThreadId);
    winners.push_back(winner);
    // Full quantum: no compensation ticket, the steady state that lets
    // batches form and survive.
    sched.OnQuantumEnd(winner, kQuantum, kQuantum, kT0);
    sched.OnReady(winner, kT0);
  }
  return winners;
}

TEST(DrawIdentity, SchedulerBatchedEqualsUnbatchedSteadyState) {
  for (uint32_t seed = 1; seed <= 32; ++seed) {
    const auto batched = RunSchedule(seed, 8, 12, 400, 0, 0);
    const auto unbatched = RunSchedule(seed, 0, 12, 400, 0, 0);
    ASSERT_EQ(batched, unbatched) << "seed " << seed;
  }
}

TEST(DrawIdentity, SchedulerBatchedEqualsUnbatchedUnderMutations) {
  for (uint32_t seed = 1; seed <= 32; ++seed) {
    // Reprices land mid-batch (every 11 picks vs a window of 8): every
    // flush path must leave the stream exactly where unbatched draws do.
    const auto batched = RunSchedule(seed, 8, 12, 400, 11, 0);
    const auto unbatched = RunSchedule(seed, 0, 12, 400, 11, 0);
    ASSERT_EQ(batched, unbatched) << "seed " << seed;
  }
}

TEST(DrawIdentity, SchedulerBatchedEqualsUnbatchedWithExternalRngDraws) {
  for (uint32_t seed = 1; seed <= 32; ++seed) {
    const auto batched = RunSchedule(seed, 8, 12, 400, 0, 13);
    const auto unbatched = RunSchedule(seed, 0, 12, 400, 0, 13);
    ASSERT_EQ(batched, unbatched) << "seed " << seed;
  }
}

TEST(DrawIdentity, SchedulerBatchingActuallyEngages) {
  // Guard against the identity tests passing vacuously: in the steady
  // state the batch counters must show real batched serves.
  obs::Registry registry;
  LotteryScheduler::Options opts;
  opts.seed = 4242;
  opts.backend = RunQueueBackend::kTree;
  opts.batch_window = 8;
  opts.metrics = &registry;
  LotteryScheduler sched(opts);
  for (int i = 0; i < 16; ++i) {
    const ThreadId id = static_cast<ThreadId>(i + 1);
    sched.AddThread(id, kT0);
    sched.FundThread(id, sched.table().base(), 100 + i * 10);
    sched.OnReady(id, kT0);
  }
  for (int i = 0; i < 400; ++i) {
    const ThreadId winner = sched.PickNext(kT0);
    ASSERT_NE(winner, kInvalidThreadId);
    sched.OnQuantumEnd(winner, kQuantum, kQuantum, kT0);
    sched.OnReady(winner, kT0);
  }
  const obs::Counter* formed = registry.FindCounter("lottery.batch_formed");
  const obs::Counter* served = registry.FindCounter("lottery.batch_draws");
  ASSERT_NE(formed, nullptr);
  ASSERT_NE(served, nullptr);
  EXPECT_GT(formed->value(), 10u);
  // 400 picks, streak gate of 4, window 8: the large majority of picks
  // must be served without a descent.
  EXPECT_GT(served->value(), 300u);
}

}  // namespace
}  // namespace lottery
