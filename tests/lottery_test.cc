// Tests for ListLottery (Figure 1, Section 4.2) and TreeLottery.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/core/funding.h"
#include "src/core/list_lottery.h"
#include "src/core/tree_lottery.h"
#include "src/util/stats.h"

namespace lottery {
namespace {

// The raw Funding units of `base` base tickets: the weight the scheduler
// pushes for a client holding them.
uint64_t Units(int64_t base) { return Funding::FromBase(base).raw_unsigned(); }

// Live slots in draw order, front first.
std::vector<size_t> Order(const ListLottery& lot) {
  std::vector<size_t> out;
  lot.ForEach([&out](size_t slot, uint64_t) { out.push_back(slot); });
  return out;
}

TEST(ListLotteryTest, EmptyDrawsNullopt) {
  ListLottery lot;
  FastRand rng(1);
  EXPECT_FALSE(lot.Draw(rng).has_value());
  EXPECT_TRUE(lot.empty());
}

TEST(ListLotteryTest, AddRemoveRecyclesSlots) {
  ListLottery lot;
  const size_t a = lot.Add(Units(10));
  EXPECT_EQ(lot.size(), 1u);
  EXPECT_EQ(lot.Weight(a), Units(10));
  lot.Remove(a);
  EXPECT_TRUE(lot.empty());
  EXPECT_THROW(lot.Remove(a), std::out_of_range);
  EXPECT_THROW(lot.Weight(a), std::out_of_range);
  EXPECT_THROW(lot.SetWeight(a, 1), std::out_of_range);
  EXPECT_EQ(lot.Add(Units(3)), a);  // the freed slot comes back
  EXPECT_EQ(lot.total(), Units(3));
}

TEST(ListLotteryTest, TotalSumsWeights) {
  ListLottery lot;
  for (const int64_t tickets : {10, 2, 5, 1, 2}) {
    lot.Add(Units(tickets));
  }
  EXPECT_EQ(lot.total(), Units(20));  // Figure 1's 20-ticket example
}

TEST(ListLotteryTest, SetWeightMovesTheTotal) {
  ListLottery lot;
  const size_t a = lot.Add(Units(10));
  const size_t b = lot.Add(Units(30));
  lot.SetWeight(a, Units(25));
  EXPECT_EQ(lot.total(), Units(55));
  EXPECT_EQ(lot.Weight(a), Units(25));
  lot.SetWeight(b, 0);  // a zero-weight slot never wins
  FastRand rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(lot.Draw(rng), a);
  }
}

TEST(ListLotteryTest, SingleClientAlwaysWins) {
  ListLottery lot;
  const size_t a = lot.Add(Units(7));
  FastRand rng(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(lot.Draw(rng), a);
  }
}

TEST(ListLotteryTest, ZeroTotalDrawsNullopt) {
  ListLottery lot;
  lot.Add(0);  // e.g. a deactivated client, worth zero
  FastRand rng(1);
  EXPECT_FALSE(lot.Draw(rng).has_value());
}

TEST(ListLotteryTest, ProportionsMatchTicketsChiSquare) {
  // Figure 1's allocation: 10, 2, 5, 1, 2 of 20 total.
  ListLottery lot(/*move_to_front=*/false);
  const double weights[] = {10, 2, 5, 1, 2};
  std::vector<size_t> slots;
  for (const double w : weights) {
    slots.push_back(lot.Add(Units(static_cast<int64_t>(w))));
  }
  FastRand rng(424242);
  constexpr int kDraws = 200000;
  std::map<size_t, int64_t> wins;
  for (int i = 0; i < kDraws; ++i) {
    ++wins[*lot.Draw(rng)];
  }
  std::vector<int64_t> observed;
  std::vector<double> expected;
  for (size_t i = 0; i < slots.size(); ++i) {
    observed.push_back(wins[slots[i]]);
    expected.push_back(kDraws * weights[i] / 20.0);
  }
  EXPECT_LT(ChiSquareStatistic(observed, expected),
            ChiSquareCritical(4, 0.001));
}

TEST(ListLotteryTest, MoveToFrontDoesNotChangeDistribution) {
  ListLottery lot(/*move_to_front=*/true);
  const size_t a = lot.Add(Units(3));
  lot.Add(Units(1));
  FastRand rng(7);
  int64_t a_wins = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (lot.Draw(rng) == a) {
      ++a_wins;
    }
  }
  EXPECT_NEAR(static_cast<double>(a_wins) / kDraws, 0.75, 0.01);
}

TEST(ListLotteryTest, MoveToFrontShortensScans) {
  // One dominant client among many, added last: with move-to-front it
  // migrates to the head, so the mean scan length approaches 1.
  ListLottery plain(false), mtf(true);
  for (int i = 0; i < 49; ++i) {
    plain.Add(Units(1));
    mtf.Add(Units(1));
  }
  plain.Add(Units(1000));
  mtf.Add(Units(1000));
  FastRand rng1(5), rng2(5);
  for (int i = 0; i < 20000; ++i) {
    plain.Draw(rng1);
    mtf.Draw(rng2);
  }
  const double plain_scan = static_cast<double>(plain.total_scanned()) /
                            static_cast<double>(plain.num_draws());
  const double mtf_scan = static_cast<double>(mtf.total_scanned()) /
                          static_cast<double>(mtf.num_draws());
  EXPECT_LT(mtf_scan, plain_scan / 4.0);
}

TEST(ListLotteryTest, WinnerMovesToFront) {
  ListLottery lot(/*move_to_front=*/true);
  lot.Add(Units(1));
  const size_t b = lot.Add(Units(1000000));
  FastRand rng(3);
  lot.Draw(rng);  // b wins almost surely
  EXPECT_EQ(Order(lot).front(), b);
}

TEST(ListLotteryTest, DynamicMembershipStaysFair) {
  // The lottery "operates fairly when the number of clients or tickets
  // varies dynamically" (Section 2): add/remove mid-stream.
  ListLottery lot;
  lot.Add(Units(1));
  lot.Add(Units(1));
  FastRand rng(17);
  for (int i = 0; i < 1000; ++i) {
    lot.Draw(rng);
  }
  const size_t c = lot.Add(Units(2));
  int64_t c_wins = 0;
  constexpr int kDraws = 40000;
  for (int i = 0; i < kDraws; ++i) {
    if (lot.Draw(rng) == c) {
      ++c_wins;
    }
  }
  EXPECT_NEAR(static_cast<double>(c_wins) / kDraws, 0.5, 0.02);
}

TEST(ListLotteryTest, HeavyChurnCompactsTombstones) {
  // Add/remove churn far past the live count: draws stay correct and the
  // order semantics match the paper's list (spot-checked via the front).
  ListLottery lot;
  FastRand rng(123);
  for (int round = 0; round < 50; ++round) {
    std::vector<size_t> slots;
    for (int i = 0; i < 64; ++i) {
      slots.push_back(lot.Add(Units(1 + (i % 5))));
    }
    for (int i = 0; i < 60; ++i) {
      lot.Remove(slots[static_cast<size_t>(i)]);
    }
    uint64_t manual = 0;
    for (int i = 60; i < 64; ++i) {
      manual += Units(1 + (i % 5));
    }
    ASSERT_EQ(lot.total(), manual);
    const std::optional<size_t> w = lot.Draw(rng);
    ASSERT_TRUE(w.has_value());
    ASSERT_NE(std::find(slots.begin() + 60, slots.end(), *w), slots.end());
    ASSERT_EQ(Order(lot).front(), *w);  // move-to-front applied
    for (int i = 60; i < 64; ++i) {
      lot.Remove(slots[static_cast<size_t>(i)]);
    }
    ASSERT_TRUE(lot.empty());
    ASSERT_EQ(lot.total(), 0u);
  }
}

// --- TreeLottery ------------------------------------------------------------

TEST(TreeLottery, EmptyDrawsNullopt) {
  TreeLottery tree;
  FastRand rng(1);
  EXPECT_FALSE(tree.Draw(rng).has_value());
  EXPECT_TRUE(tree.empty());
}

TEST(TreeLottery, SlotForValueExactBoundaries) {
  TreeLottery tree;
  const size_t a = tree.Add(10);
  const size_t b = tree.Add(2);
  const size_t c = tree.Add(5);
  EXPECT_EQ(tree.total(), 17u);
  EXPECT_EQ(tree.SlotForValue(0), a);
  EXPECT_EQ(tree.SlotForValue(9), a);
  EXPECT_EQ(tree.SlotForValue(10), b);
  EXPECT_EQ(tree.SlotForValue(11), b);
  EXPECT_EQ(tree.SlotForValue(12), c);
  EXPECT_EQ(tree.SlotForValue(16), c);
  EXPECT_THROW(tree.SlotForValue(17), std::out_of_range);
}

TEST(TreeLottery, SetWeightMovesBoundaries) {
  TreeLottery tree;
  const size_t a = tree.Add(4);
  const size_t b = tree.Add(4);
  tree.SetWeight(a, 1);
  EXPECT_EQ(tree.total(), 5u);
  EXPECT_EQ(tree.SlotForValue(0), a);
  EXPECT_EQ(tree.SlotForValue(1), b);
}

TEST(TreeLottery, RemoveFreesAndRecyclesSlots) {
  TreeLottery tree;
  const size_t a = tree.Add(3);
  const size_t b = tree.Add(7);
  tree.Remove(a);
  EXPECT_EQ(tree.total(), 7u);
  EXPECT_EQ(tree.size(), 1u);
  const size_t c = tree.Add(5);
  EXPECT_EQ(c, a);  // recycled
  EXPECT_EQ(tree.total(), 12u);
  (void)b;
}

TEST(TreeLottery, GrowsPastInitialCapacity) {
  TreeLottery tree(2);
  std::vector<size_t> slots;
  for (int i = 0; i < 100; ++i) {
    slots.push_back(tree.Add(static_cast<uint64_t>(i + 1)));
  }
  EXPECT_EQ(tree.size(), 100u);
  uint64_t expected_total = 0;
  for (int i = 0; i < 100; ++i) {
    expected_total += static_cast<uint64_t>(i + 1);
    EXPECT_EQ(tree.Weight(slots[static_cast<size_t>(i)]),
              static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(tree.total(), expected_total);
}

TEST(TreeLottery, ZeroWeightSlotNeverWins) {
  TreeLottery tree;
  tree.Add(0);
  const size_t b = tree.Add(5);
  FastRand rng(2);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(tree.Draw(rng).value(), b);
  }
}

TEST(TreeLottery, DistributionMatchesWeights) {
  TreeLottery tree;
  const size_t a = tree.Add(10);
  const size_t b = tree.Add(2);
  const size_t c = tree.Add(5);
  const size_t d = tree.Add(1);
  const size_t e = tree.Add(2);
  FastRand rng(31337);
  std::map<size_t, int64_t> wins;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    ++wins[tree.Draw(rng).value()];
  }
  const std::vector<int64_t> observed = {wins[a], wins[b], wins[c], wins[d],
                                         wins[e]};
  const std::vector<double> expected = {kDraws * 10 / 20.0, kDraws * 2 / 20.0,
                                        kDraws * 5 / 20.0, kDraws * 1 / 20.0,
                                        kDraws * 2 / 20.0};
  EXPECT_LT(ChiSquareStatistic(observed, expected),
            ChiSquareCritical(4, 0.001));
}

TEST(TreeLottery, LargeWeightsUse64Bits) {
  TreeLottery tree;
  const uint64_t big = uint64_t{1} << 40;
  const size_t a = tree.Add(big);
  const size_t b = tree.Add(big * 3);
  FastRand rng(11);
  int64_t b_wins = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    if (tree.Draw(rng).value() == b) {
      ++b_wins;
    }
  }
  EXPECT_NEAR(static_cast<double>(b_wins) / kDraws, 0.75, 0.02);
  (void)a;
}

// Property sweep: for any size, SlotForValue partitions [0, total) into
// intervals whose lengths equal the weights. The leaves are the tree's only
// copy of the weights, so the sweep also removes and re-weights slots and
// then grows the tree past its capacity: Grow must carry the updated
// leaves over.
class TreePartitionSweep : public ::testing::TestWithParam<int> {};

TEST_P(TreePartitionSweep, PartitionLengthsEqualWeights) {
  const int n = GetParam();
  TreeLottery tree;
  FastRand rng(static_cast<uint32_t>(100 + n));
  std::map<size_t, uint64_t> weights;  // live slot -> weight
  auto add = [&] {
    const uint64_t w = rng.NextBelow(20);  // zero weights allowed
    weights[tree.Add(w)] = w;
  };
  auto expect_partition = [&](const char* phase) {
    ASSERT_EQ(tree.size(), weights.size()) << phase;
    std::map<size_t, uint64_t> hits;
    for (uint64_t v = 0; v < tree.total(); ++v) {
      ++hits[tree.SlotForValue(v)];
    }
    for (const auto& [slot, w] : weights) {
      EXPECT_EQ(hits[slot], w) << phase << ": slot " << slot;
      EXPECT_EQ(tree.Weight(slot), w) << phase << ": slot " << slot;
    }
  };
  for (int i = 0; i < n; ++i) {
    add();
  }
  expect_partition("added");

  const size_t capacity = tree.capacity();
  int i = 0;
  for (auto it = weights.begin(); it != weights.end(); ++i) {
    if (i % 3 == 0) {
      tree.Remove(it->first);
      it = weights.erase(it);
      continue;
    }
    if (i % 2 == 0) {
      it->second = rng.NextBelow(20);
      tree.SetWeight(it->first, it->second);
    }
    ++it;
  }
  expect_partition("removed and re-weighted");
  while (tree.capacity() == capacity) {
    add();
  }
  expect_partition("grown");
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreePartitionSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 17, 33, 64, 100));

}  // namespace
}  // namespace lottery
