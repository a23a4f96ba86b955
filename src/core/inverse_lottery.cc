// lotlint: file float-ok — loss probabilities are inherently real-valued;
// the draw itself (DrawInverse) is integer-exact over complementary weights.

#include "src/core/inverse_lottery.h"

#include <numeric>
#include <stdexcept>

#include "src/core/weighted_draw.h"

namespace lottery {

std::optional<size_t> DrawInverse(const std::vector<uint64_t>& weights,
                                  FastRand& rng) {  // lotlint: stream(caller)
  const size_t n = weights.size();
  if (n == 0) {
    return std::nullopt;
  }
  if (n == 1) {
    return 0;
  }
  const uint64_t total =
      std::accumulate(weights.begin(), weights.end(), uint64_t{0});
  if (total == 0) {
    // Degenerate: no tickets anywhere; choose uniformly.
    return static_cast<size_t>(rng.NextBelow(static_cast<uint32_t>(n)));
  }
  // Complementary weights sum to (n - 1) * total.
  const auto loser = DrawWeighted(rng, weights.begin(), weights.end(),
                                  [total](uint64_t w) { return total - w; });
  return static_cast<size_t>(loser - weights.begin());
}

double InverseLossProbability(const std::vector<uint64_t>& weights, size_t i) {
  const size_t n = weights.size();
  if (i >= n) {
    throw std::out_of_range("InverseLossProbability: bad index");
  }
  if (n == 1) {
    return 1.0;
  }
  const uint64_t total =
      std::accumulate(weights.begin(), weights.end(), uint64_t{0});
  if (total == 0) {
    return 1.0 / static_cast<double>(n);
  }
  const double share =
      static_cast<double>(weights[i]) / static_cast<double>(total);
  return (1.0 - share) / (static_cast<double>(n) - 1.0);
}

}  // namespace lottery
