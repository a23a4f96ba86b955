// Tree-based lottery: O(lg n) winner selection over partial ticket sums.
//
// Section 4.2: "for large n, a more efficient implementation is to use a
// tree of partial ticket sums, with clients at the leaves... requiring only
// lg n operations." The tree is stored as an implicit complete binary tree
// in breadth-first (Eytzinger) order over a power-of-two leaf count: node 1
// is the root (== total), node i has children 2i and 2i+1, and slot s lives
// at leaf capacity + s. The leaf is the slot's only weight record (Weight
// reads it; Grow copies the leaves into the larger tree). Two properties
// make a draw cheap on real hardware:
//
//  * The descent is a fixed-trip, branchless loop — lg(capacity)
//    iterations, each a compare turned into an arithmetic mask (no
//    data-dependent branch for the predictor to miss on random values).
//  * The layout is cache-compact for descents: the first three levels
//    (seven nodes) share one 64-byte line — the array is 64-byte aligned —
//    and both grandchildren pairs of any node are contiguous, so each
//    level's candidates are prefetched one line at a time.
//
// Like ListLottery, TreeLottery manages flat weights pushed by its owner
// under the same slot contract (Add/Remove/SetWeight/Weight/total/size/
// Draw); only the search differs. The LotteryScheduler can run on either
// backend, syncing client values into the slots the same way; the bench
// bench_draw_overhead compares their costs.

#ifndef SRC_CORE_TREE_LOTTERY_H_
#define SRC_CORE_TREE_LOTTERY_H_

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/fastrand.h"

namespace lottery {

class TreeLottery {
 public:
  // `initial_capacity` is a hint; the tree grows on demand.
  explicit TreeLottery(size_t initial_capacity = 16);

  // Registers a competitor with the given weight; returns its slot handle.
  size_t Add(uint64_t weight);
  // Removes the competitor; its slot is recycled by later Add calls.
  void Remove(size_t slot);
  void SetWeight(size_t slot, uint64_t weight);
  uint64_t Weight(size_t slot) const;

  uint64_t total() const { return total_; }
  size_t size() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }
  // Leaf count (power of two). Slots are always < capacity().
  size_t capacity() const { return capacity_; }

  // Picks a slot with probability weight/total in O(lg capacity);
  // std::nullopt if the total weight is zero. A non-null `drawn_value`
  // receives the random value in [0, total()) behind the pick (for the
  // etrace decision stream; the RNG sequence is unchanged either way).
  std::optional<size_t> Draw(FastRand& rng,
                             uint64_t* drawn_value = nullptr) const;
  // Deterministic variant used by tests: returns the slot owning the
  // `value`-th weight unit, value in [0, total).
  size_t SlotForValue(uint64_t value) const;

  // Resolves values[i] in [0, total) to slots[i] for i < k, descending in
  // ascending value order so the k descents share the upper tree levels in
  // cache (one near-sequential sweep). The scheduler's speculative batching
  // resolves its pre-drawn values this way.
  void ResolveValues(size_t k, const uint64_t* values, size_t* slots) const;

  // Fenwick levels visited by one Draw descent: the tree analogue of the
  // list lottery's scan length (both feed the lottery.draw_cost histogram).
  size_t draw_depth() const {
    return static_cast<size_t>(std::bit_width(capacity_));
  }

 private:
  void Grow(size_t min_capacity);

  // Implicit binary tree, 64-byte aligned inside nodes_storage_:
  // nodes_[1] is the root, leaves (the slot weights) at
  // nodes_[capacity_ + slot].
  std::vector<uint64_t> nodes_storage_;
  uint64_t* nodes_ = nullptr;
  size_t capacity_ = 0;  // leaf count, a power of two
  int levels_ = 0;       // log2(capacity_)
  std::vector<size_t> free_slots_;
  size_t next_fresh_ = 0;
  size_t live_count_ = 0;
  uint64_t total_ = 0;
};

}  // namespace lottery

#endif  // SRC_CORE_TREE_LOTTERY_H_
