// Tests for inverse-lottery page replacement (Section 6.2).

#include "src/sim/page_cache.h"

#include <gtest/gtest.h>

namespace lottery {
namespace {

TEST(PageCache, RejectsZeroFrames) {
  FastRand rng(1);
  EXPECT_THROW(PageCache(0, &rng), std::invalid_argument);
}

TEST(PageCache, HitAndMissAccounting) {
  FastRand rng(1);
  PageCache cache(4, &rng);
  cache.RegisterClient(1, 10);
  EXPECT_FALSE(cache.Access(1, 100).hit);
  EXPECT_TRUE(cache.Access(1, 100).hit);
  EXPECT_EQ(cache.Hits(1), 1u);
  EXPECT_EQ(cache.Faults(1), 1u);
  EXPECT_EQ(cache.FramesHeld(1), 1u);
  EXPECT_EQ(cache.frames_in_use(), 1u);
}

TEST(PageCache, DuplicateClientThrows) {
  FastRand rng(1);
  PageCache cache(4, &rng);
  cache.RegisterClient(1, 10);
  EXPECT_THROW(cache.RegisterClient(1, 5), std::invalid_argument);
  EXPECT_THROW(cache.Access(2, 1), std::invalid_argument);
}

TEST(PageCache, NoEvictionUntilFull) {
  FastRand rng(1);
  PageCache cache(3, &rng);
  cache.RegisterClient(1, 10);
  EXPECT_FALSE(cache.Access(1, 1).evicted);
  EXPECT_FALSE(cache.Access(1, 2).evicted);
  EXPECT_FALSE(cache.Access(1, 3).evicted);
  const auto r = cache.Access(1, 4);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(cache.frames_in_use(), 3u);
}

TEST(PageCache, SoleClientEvictsItsOwnLruPage) {
  FastRand rng(1);
  PageCache cache(2, &rng);
  cache.RegisterClient(1, 10);
  cache.Access(1, 1);
  cache.Access(1, 2);
  cache.Access(1, 1);  // page 1 now MRU, page 2 LRU
  const auto r = cache.Access(1, 3);
  ASSERT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_client, 1u);
  EXPECT_EQ(r.victim_page, 2u);
  // Page 1 must still be resident.
  EXPECT_TRUE(cache.Access(1, 1).hit);
}

TEST(PageCache, FirstVictimProbabilityMatchesSectionSixTwo) {
  // Instantaneous victim choice at equal frame counts (50/50), tickets
  // 30:10: weights (40-30)*50 : (40-10)*50 = 1:3, so the poor client loses
  // the first eviction with probability 3/4. (Long-run eviction *rates*
  // converge to the fault rates by flow conservation, so the instantaneous
  // probability is the right observable.)
  int poor_losses = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    FastRand rng(static_cast<uint32_t>(1000 + trial));
    PageCache cache(100, &rng);
    cache.RegisterClient(1, 30);
    cache.RegisterClient(2, 10);
    for (uint64_t p = 0; p < 50; ++p) {
      cache.Access(1, p);
      cache.Access(2, 1000 + p);
    }
    const auto r = cache.Access(1, 999999);  // first eviction
    ASSERT_TRUE(r.evicted);
    if (r.victim_client == 2) {
      ++poor_losses;
    }
  }
  EXPECT_NEAR(static_cast<double>(poor_losses) / kTrials, 0.75, 0.03);
}

TEST(PageCache, ZeroTicketHoldersLoseInProportionToFrames) {
  // Two holders with zero tickets zero every Section 6.2 weight, so the
  // victim is drawn by frames held alone: the 75-frame client loses the
  // first eviction with probability 3/4 (sigma ~0.007 over 4000 trials).
  int big_losses = 0;
  constexpr int kTrials = 4000;
  FastRand rng(2024);
  for (int trial = 0; trial < kTrials; ++trial) {
    PageCache cache(100, &rng);
    cache.RegisterClient(1, 0);
    cache.RegisterClient(2, 0);
    for (uint64_t p = 0; p < 75; ++p) {
      cache.Access(1, p);
    }
    for (uint64_t p = 0; p < 25; ++p) {
      cache.Access(2, 1000 + p);
    }
    const auto r = cache.Access(2, 999999);  // first eviction
    ASSERT_TRUE(r.evicted);
    if (r.victim_client == 1) {
      ++big_losses;
    }
  }
  EXPECT_NEAR(static_cast<double>(big_losses) / kTrials, 0.75, 0.03);
}

TEST(PageCache, MemoryShareEquilibriumFavorsFunding) {
  // With continuous fresh faults from both clients, the steady-state frame
  // split balances loss rates; the rich client ends with more frames.
  FastRand rng(7);
  PageCache cache(200, &rng);
  cache.RegisterClient(1, 75);
  cache.RegisterClient(2, 25);
  for (uint64_t p = 0; p < 60000; ++p) {
    cache.Access(1, 1000000 + p);
    cache.Access(2, 5000000 + p);
  }
  EXPECT_GT(cache.FramesHeld(1), cache.FramesHeld(2));
  EXPECT_EQ(cache.FramesHeld(1) + cache.FramesHeld(2), 200u);
}

TEST(PageCache, SetTicketsShiftsMemoryEquilibrium) {
  FastRand rng(9);
  PageCache cache(50, &rng);
  cache.RegisterClient(1, 10);
  cache.RegisterClient(2, 10);
  for (uint64_t p = 0; p < 10000; ++p) {
    cache.Access(1, 10000 + p);
    cache.Access(2, 20000 + p);
  }
  // Equal tickets, equal fault rates: frames split evenly.
  EXPECT_NEAR(static_cast<double>(cache.FramesHeld(1)), 25.0, 10.0);
  // Boost client 1 and keep faulting: its equilibrium frame share should
  // rise to (nearly) the whole cache, since client 2's complementary
  // weight dwarfs client 1's.
  cache.SetTickets(1, 1000);
  for (uint64_t p = 0; p < 10000; ++p) {
    cache.Access(1, 50000 + p);
    cache.Access(2, 70000 + p);
  }
  EXPECT_GT(cache.FramesHeld(1), 40u);
}

}  // namespace
}  // namespace lottery
