// Figure 1's lottery walk, written once for every linear draw.
//
// Figure 1 draws a winning value below the total, then walks the
// candidates until the running sum of their tickets exceeds it. The paper
// reuses that draw for the CPU run queue (§4.2), lock waiters (§6.1),
// inverse lotteries for memory (§6.2) and disk and link bandwidth (§6.3).
// Every linear draw here goes through the two halves below; the callers
// keep only their eligibility rule (an ineligible candidate weighs zero)
// and their own fallback for an all-zero sum.
//
// Candidates come as an iterator range plus a weight function, so a pick
// allocates nothing. The weight function is called in candidate order.
// DrawWeighted calls it for every candidate while summing, then again for
// each candidate up to the winner while walking. The summing pass
// therefore fixes the valuation order (CurrencyTable::TicketValue
// reprices lazily, so that order decides where its kReprice events fall),
// and the walk must see the same values again (a repriced value is cached
// by then).

#ifndef SRC_CORE_WEIGHTED_DRAW_H_
#define SRC_CORE_WEIGHTED_DRAW_H_

#include <cstdint>
#include <stdexcept>

#include "src/util/fastrand.h"

namespace lottery {

// Returns the first candidate in [first, last), in order, whose running
// weight sum exceeds `value`, calling `weight` once for each candidate up
// to and including it. Throws std::logic_error when `value` is not below
// the sum of all weights: the caller's total and its weights disagree.
template <typename It, typename WeightFn>
It ResolveWeighted(It first, It last, uint64_t value, WeightFn&& weight) {
  uint64_t sum = 0;
  for (; first != last; ++first) {
    sum += weight(*first);
    if (sum > value) {
      return first;
    }
  }
  throw std::logic_error("ResolveWeighted: drawn value not below the sum");
}

// Holds one lottery over [first, last): sums the weights, makes exactly one
// rng.NextBelow64(sum) call and resolves it. When the sum is zero it leaves
// `rng` untouched and returns `last` ("no winner").
template <typename It, typename WeightFn>
It DrawWeighted(FastRand& rng,  // lotlint: stream(caller)
                It first, It last, WeightFn&& weight) {
  uint64_t total = 0;
  for (It it = first; it != last; ++it) {
    total += weight(*it);
  }
  if (total == 0) {
    return last;
  }
  return ResolveWeighted(first, last, rng.NextBelow64(total), weight);
}

}  // namespace lottery

#endif  // SRC_CORE_WEIGHTED_DRAW_H_
