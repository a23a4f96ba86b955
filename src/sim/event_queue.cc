#include "src/sim/event_queue.h"

#include <algorithm>
#include <utility>

namespace lottery {
namespace {

// Ids pack {generation, arena index} so a stale id can be rejected in O(1).
constexpr uint64_t kIndexBits = 32;
constexpr uint64_t kIndexMask = (uint64_t{1} << kIndexBits) - 1;

}  // namespace

void EventQueue::FreeNode(uint32_t index) {
  Node& node = nodes_[index];
  node.state = NodeState::kFree;
  ++node.gen;  // outstanding ids for this slot become stale
  node.next = free_head_;
  free_head_ = index;
}

void EventQueue::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later);
  heap_.pop_back();
}

void EventQueue::DropCancelledTop() {
  while (!heap_.empty() &&
         nodes_[heap_.front().index].state == NodeState::kCancelled) {
    FreeNode(heap_.front().index);
    PopTop();
  }
}

void EventQueue::PurgeCancelled() {
  size_t kept = 0;
  for (const Entry& entry : heap_) {
    if (nodes_[entry.index].state == NodeState::kCancelled) {
      FreeNode(entry.index);
    } else {
      heap_[kept++] = entry;
    }
  }
  heap_.resize(kept);
  // Keys are unique (seq), so the rebuilt heap pops in the same order.
  std::make_heap(heap_.begin(), heap_.end(), Later);
}

EventQueue::EventId EventQueue::Schedule(SimTime when, Handler handler) {
  uint32_t index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = nodes_[index].next;
  } else {
    index = static_cast<uint32_t>(nodes_.size());
    nodes_.EmplaceBack();
    handlers_.EmplaceBack();
  }
  nodes_[index].state = NodeState::kPending;
  handlers_[index] = std::move(handler);  // destroys any stale predecessor
  heap_.push_back(Entry{when.nanos(), next_seq_++, index});
  std::push_heap(heap_.begin(), heap_.end(), Later);
  ++live_;
  return (static_cast<uint64_t>(nodes_[index].gen) << kIndexBits) |
         static_cast<uint64_t>(index);
}

void EventQueue::Cancel(EventId id) {
  const uint64_t index = id & kIndexMask;
  if (index >= nodes_.size()) {
    return;
  }
  Node& node = nodes_[static_cast<size_t>(index)];
  if (node.gen != static_cast<uint32_t>(id >> kIndexBits) ||
      node.state != NodeState::kPending) {
    return;
  }
  // Mid-heap removal is not O(1): leave a tombstone. Rebuilding once they
  // outnumber live events costs O(1) amortized per cancel and bounds the
  // arena by twice the live count plus one.
  node.state = NodeState::kCancelled;
  --live_;
  if (heap_.size() - live_ > live_) {
    PurgeCancelled();
  } else {
    DropCancelledTop();
  }
}

size_t EventQueue::RunUntil(SimTime limit) {
  const int64_t limit_ns = limit.nanos();
  size_t ran = 0;
  while (!heap_.empty() && heap_.front().when_ns <= limit_ns) {
    const uint32_t index = heap_.front().index;
    const SimTime when = SimTime::FromNanos(heap_.front().when_ns);
    PopTop();
    DropCancelledTop();
    // Invoke the handler in place: its slot is address-stable (chunked
    // arena) and cannot be reused until FreeNode below, so no defensive
    // move-out is needed. Flipping the state first makes a self-Cancel
    // from inside the handler a no-op.
    nodes_[index].state = NodeState::kFree;
    --live_;
    handlers_[index](when);
    FreeNode(index);
    ++ran;
  }
  return ran;
}

}  // namespace lottery
