// List-based lottery with the paper's "move to front" heuristic.
//
// This mirrors Section 4.2 and Figure 1 and the prototype's actual run-queue
// implementation: a winning value is drawn uniformly over [0, total), then
// the list is traversed accumulating each competitor's weight until the
// running sum exceeds the winning value. The traversal is the walk every
// linear lottery shares (ResolveWeighted, weighted_draw.h); only the draw of
// the value from the maintained total is this class's own. With
// move-to-front, competitors that win often migrate to the front,
// shortening the average traversal.
//
// Like TreeLottery, the list holds flat weights pushed by its owner: Add
// returns a slot handle, SetWeight re-prices it, and the owner decides when
// a weight is stale (the LotteryScheduler re-pushes the client values the
// currency table marked dirty). Slots are small dense indices recycled by
// later Add calls; the draw order is the list's own, independent of them.
//
// Storage is an array in draw order rather than a linked list: Draw walks
// contiguous (slot, weight) entries, Remove tombstones in O(1) and compacts
// lazily, and move-to-front is std::rotate over the winner's prefix — the
// resulting order is identical to the paper's list semantics, so fixed-seed
// draw sequences are unchanged.

#ifndef SRC_CORE_LIST_LOTTERY_H_
#define SRC_CORE_LIST_LOTTERY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/fastrand.h"

namespace lottery {

class ListLottery {
 public:
  explicit ListLottery(bool move_to_front = true)
      : move_to_front_(move_to_front) {}

  // Appends a competitor with the given weight at the back of the list;
  // returns its slot handle.
  size_t Add(uint64_t weight);
  // Removes the competitor; its slot is recycled by later Add calls.
  // Remove, SetWeight and Weight throw std::out_of_range for a slot that is
  // not live.
  void Remove(size_t slot);
  void SetWeight(size_t slot, uint64_t weight);
  uint64_t Weight(size_t slot) const;

  uint64_t total() const { return total_; }
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  // Holds one lottery: picks a slot with probability weight/total by the
  // Figure 1 walk; std::nullopt if the total weight is zero. Does not remove
  // the winner (with move-to-front it moves to the front). A non-null
  // `drawn_value` receives the random value in [0, total()) behind the pick
  // (for the etrace decision stream; the RNG sequence is unchanged either
  // way).
  std::optional<size_t> Draw(FastRand& rng, uint64_t* drawn_value = nullptr);

  // Calls fn(slot, weight) for every live slot in draw order, front first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Entry& entry : order_) {
      if (entry.slot != kFree) {
        fn(entry.slot, entry.weight);
      }
    }
  }

  // Instrumentation: cumulative competitors examined by Draw traversals and
  // the number of draws, for reproducing the move-to-front search-length
  // claim (and the scheduler's lottery.draw_cost samples).
  uint64_t total_scanned() const { return total_scanned_; }
  uint64_t num_draws() const { return num_draws_; }

 private:
  static constexpr size_t kFree = SIZE_MAX;

  struct Entry {
    size_t slot;      // kFree for a tombstone
    uint64_t weight;  // 0 for a tombstone
  };

  // Index of a live slot's entry in order_; throws std::out_of_range.
  size_t IndexOf(size_t slot) const;
  void Compact();

  bool move_to_front_;
  std::vector<Entry> order_;      // draw order, tombstones included
  std::vector<size_t> position_;  // slot -> index in order_, kFree if free
  std::vector<size_t> free_slots_;
  size_t live_count_ = 0;
  size_t tombstones_ = 0;
  uint64_t total_ = 0;
  uint64_t total_scanned_ = 0;
  uint64_t num_draws_ = 0;
};

}  // namespace lottery

#endif  // SRC_CORE_LIST_LOTTERY_H_
