// Tests for the shared Figure 1 walk against a brute-force reference: a
// plain prefix scan over a copied generator's NextBelow64(sum).

#include "src/core/weighted_draw.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/util/fastrand.h"

namespace lottery {
namespace {

constexpr uint64_t kRange =
    static_cast<uint64_t>(FastRand::kModulus - 1u) * (FastRand::kModulus - 1u);

uint64_t Identity(uint64_t w) { return w; }

// The reference: sum, one draw on a copy of the generator, prefix scan.
// Returns nullopt (and draws nothing) when the sum is zero.
std::optional<size_t> ReferenceDraw(const std::vector<uint64_t>& weights,
                                    FastRand& rng) {
  uint64_t sum = 0;
  for (const uint64_t w : weights) {
    sum += w;
  }
  if (sum == 0) {
    return std::nullopt;
  }
  const uint64_t value = rng.NextBelow64(sum);
  uint64_t prefix = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    prefix += weights[i];
    if (prefix > value) {
      return i;
    }
  }
  ADD_FAILURE() << "reference ran past its own sum";
  return std::nullopt;
}

// Draws once with the helper and once with the reference on a copy of the
// same generator; both the winner and the generator's end state must agree.
void ExpectMatchesReference(const std::vector<uint64_t>& weights,
                            FastRand& rng) {
  FastRand copy = rng;
  const std::optional<size_t> want = ReferenceDraw(weights, copy);
  const auto it = DrawWeighted(rng, weights.begin(), weights.end(), Identity);
  if (want.has_value()) {
    ASSERT_NE(it, weights.end());
    EXPECT_EQ(static_cast<size_t>(it - weights.begin()), *want);
  } else {
    EXPECT_EQ(it, weights.end());
  }
  EXPECT_EQ(rng.state(), copy.state());
}

TEST(WeightedDraw, RandomWeightsWithZerosMatchPrefixScan) {
  FastRand shape(7);
  FastRand rng(42);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<uint64_t> weights(1 + shape.NextBelow(24));
    for (uint64_t& w : weights) {
      // About a third of the candidates hold nothing.
      w = shape.NextBelow(3) == 0 ? 0 : shape.NextBelow(1000);
    }
    ExpectMatchesReference(weights, rng);
  }
}

TEST(WeightedDraw, SingleCandidateWinsWithOneDraw) {
  FastRand rng(3);
  for (const uint64_t w : {uint64_t{1}, uint64_t{17}, kRange}) {
    FastRand copy = rng;
    copy.NextBelow64(w);
    const std::vector<uint64_t> weights = {w};
    EXPECT_EQ(DrawWeighted(rng, weights.begin(), weights.end(), Identity),
              weights.begin());
    EXPECT_EQ(rng.state(), copy.state());
  }
}

TEST(WeightedDraw, AllZeroWeightsLeaveTheGeneratorUntouched) {
  FastRand rng(11);
  const uint32_t before = rng.state();
  for (const size_t n : {size_t{0}, size_t{1}, size_t{5}}) {
    const std::vector<uint64_t> weights(n, 0);
    EXPECT_EQ(DrawWeighted(rng, weights.begin(), weights.end(), Identity),
              weights.end());
  }
  EXPECT_EQ(rng.state(), before);
}

TEST(WeightedDraw, WeightsNearTheTopOfTheRangeMatchPrefixScan) {
  // Each weight is just under 2^62 / n, so the sum sits just under the
  // widest bound NextBelow64 accepts.
  FastRand shape(5);
  FastRand rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t n = 1 + shape.NextBelow(16);
    std::vector<uint64_t> weights(n);
    for (uint64_t& w : weights) {
      w = kRange / n - shape.NextBelow(1u << 30);
    }
    ExpectMatchesReference(weights, rng);
  }
}

TEST(WeightedDraw, SummingPassValuesEveryCandidateInOrderBeforeTheWalk) {
  const std::vector<uint64_t> weights = {0, 5, 0, 3, 2};
  FastRand rng(1);
  FastRand copy = rng;
  const size_t winner = *ReferenceDraw(weights, copy);
  std::vector<size_t> calls;
  const auto it = DrawWeighted(rng, weights.begin(), weights.end(),
                               [&](const uint64_t& w) {
                                 calls.push_back(
                                     static_cast<size_t>(&w - weights.data()));
                                 return w;
                               });
  ASSERT_EQ(static_cast<size_t>(it - weights.begin()), winner);
  std::vector<size_t> want = {0, 1, 2, 3, 4};
  for (size_t i = 0; i <= winner; ++i) {
    want.push_back(i);
  }
  EXPECT_EQ(calls, want);
}

TEST(WeightedDraw, ResolveReturnsTheFirstCandidateCoveringTheValue) {
  const std::vector<uint64_t> weights = {0, 3, 0, 2};
  const auto at = [&](uint64_t value) {
    return ResolveWeighted(weights.begin(), weights.end(), value, Identity) -
           weights.begin();
  };
  EXPECT_EQ(at(0), 1);
  EXPECT_EQ(at(2), 1);
  EXPECT_EQ(at(3), 3);
  EXPECT_EQ(at(4), 3);
}

TEST(WeightedDraw, ResolveAtOrPastTheSumThrows) {
  const std::vector<uint64_t> weights = {4, 0, 6};
  for (const uint64_t value : {uint64_t{10}, uint64_t{11}, UINT64_MAX}) {
    EXPECT_THROW(
        ResolveWeighted(weights.begin(), weights.end(), value, Identity),
        std::logic_error);
  }
  const std::vector<uint64_t> none;
  EXPECT_THROW(ResolveWeighted(none.begin(), none.end(), 0, Identity),
               std::logic_error);
}

}  // namespace
}  // namespace lottery
