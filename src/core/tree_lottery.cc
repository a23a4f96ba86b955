#include "src/core/tree_lottery.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace lottery {

namespace {

// Both grandchildren pairs of `node` live at nodes_[4*node .. 4*node+3];
// pulling their line while the current level's compare resolves hides most
// of the descent's memory latency.
inline void PrefetchGrandchildren(const uint64_t* nodes, size_t node) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(nodes + 4 * node, /*rw=*/0, /*locality=*/1);
#else
  (void)nodes;
  (void)node;
#endif
}

}  // namespace

TreeLottery::TreeLottery(size_t initial_capacity) {
  Grow(initial_capacity == 0 ? 1 : initial_capacity);
}

void TreeLottery::Grow(size_t min_capacity) {
  const size_t capacity = std::bit_ceil(min_capacity);
  if (capacity <= capacity_) {
    return;
  }
  // 2*capacity nodes (index 0 unused), plus slack to 64-byte-align nodes[0]
  // so the seven nodes of the first three levels share one cache line.
  std::vector<uint64_t> storage(2 * capacity + 7, 0);
  auto addr = reinterpret_cast<uintptr_t>(storage.data());
  uint64_t* nodes =
      storage.data() + ((64 - addr % 64) % 64) / sizeof(uint64_t);
  // The old leaves are the only copy of the slot weights.
  for (size_t i = 0; i < capacity_; ++i) {
    nodes[capacity + i] = nodes_[capacity_ + i];
  }
  for (size_t i = capacity - 1; i >= 1; --i) {
    nodes[i] = nodes[2 * i] + nodes[2 * i + 1];
  }
  // Moving the vector keeps its buffer, so `nodes` stays valid.
  nodes_storage_ = std::move(storage);
  nodes_ = nodes;
  capacity_ = capacity;
  levels_ = static_cast<int>(std::countr_zero(capacity));
}

size_t TreeLottery::Add(uint64_t weight) {
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = next_fresh_++;
    if (slot >= capacity_) {
      Grow(slot + 1);
    }
  }
  ++live_count_;
  SetWeight(slot, weight);
  return slot;
}

void TreeLottery::Remove(size_t slot) {
  SetWeight(slot, 0);
  free_slots_.push_back(slot);
  --live_count_;
}

void TreeLottery::SetWeight(size_t slot, uint64_t weight) {
  if (slot >= capacity_) {
    throw std::out_of_range("TreeLottery::SetWeight: bad slot");
  }
  const size_t leaf = capacity_ + slot;
  const uint64_t delta = weight - nodes_[leaf];  // wraps; additions re-wrap
  if (delta == 0) {
    return;
  }
  // The walk starts at the leaf itself, which ends up holding `weight`.
  for (size_t i = leaf; i >= 1; i >>= 1) {
    nodes_[i] += delta;
  }
  total_ += delta;
}

uint64_t TreeLottery::Weight(size_t slot) const {
  if (slot >= capacity_) {
    throw std::out_of_range("TreeLottery::Weight: bad slot");
  }
  return nodes_[capacity_ + slot];
}

std::optional<size_t> TreeLottery::Draw(FastRand& rng,  // lotlint: stream(scheduler)
                                        uint64_t* drawn_value) const {
  if (total_ == 0) {
    return std::nullopt;
  }
  const uint64_t value = rng.NextBelow64(total_);
  if (drawn_value != nullptr) {
    *drawn_value = value;
  }
  return SlotForValue(value);
}

size_t TreeLottery::SlotForValue(uint64_t value) const {
  if (value >= total_) {
    throw std::out_of_range("TreeLottery::SlotForValue: value >= total");
  }
  // Branchless descent: at each level step right iff the left subtree's
  // weight is <= the remaining value, folding the compare into an arithmetic
  // mask so the loop has no data-dependent branch. Fixed trip count: exactly
  // levels_ iterations from root to leaf.
  size_t node = 1;
  uint64_t v = value;
  for (int level = 0; level < levels_; ++level) {
    PrefetchGrandchildren(nodes_, node);
    const uint64_t left = nodes_[2 * node];
    const uint64_t take_right = static_cast<uint64_t>(left <= v);
    v -= left & (0 - take_right);
    node = 2 * node + static_cast<size_t>(take_right);
  }
  return node - capacity_;  // leaf index -> 0-indexed slot
}

void TreeLottery::ResolveValues(size_t k, const uint64_t* values,
                                size_t* slots) const {
  // Descend in ascending value order so consecutive descents walk adjacent
  // root-to-leaf paths and share upper-level cache lines. The emitted
  // slots[i] still pairs with values[i] (argsort, not a sort of the output).
  constexpr size_t kStack = 32;
  uint32_t stack_order[kStack];
  std::vector<uint32_t> heap_order;
  uint32_t* order = stack_order;
  if (k > kStack) {
    heap_order.resize(k);
    order = heap_order.data();
  }
  for (size_t i = 0; i < k; ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  std::sort(order, order + k, [values](uint32_t a, uint32_t b) {
    return values[a] < values[b];
  });
  for (size_t i = 0; i < k; ++i) {
    slots[order[i]] = SlotForValue(values[order[i]]);
  }
}

}  // namespace lottery
