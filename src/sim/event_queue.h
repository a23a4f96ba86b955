// Discrete-event queue driving the simulated kernel's virtual clock.
//
// Events are (time, handler) pairs executed in time order with FIFO
// tiebreak, so runs are fully deterministic. Cancellation is supported for
// timers that are raced by other wakeups (e.g. a sleep cut short).
//
// The core is one binary min-heap of (when, seq, index) entries. A plain
// heap is enough because the simulator's traffic is small: perfbench
// peaks at 98 pending events (smp_churn), bench_scale's kernel runs at 1.
// The (when, seq) execution order is the original heap queue's
// (tests/event_queue_diff_test.cc checks this differentially against
// ReferenceEventQueue; tests/queue_swap_identity_test.cc pins a golden
// trace).
//
// Event records live in a chunked arena and are addressed by dense index;
// handlers are stored inline (SmallFn), so a pending event costs zero
// heap allocations. Event ids encode {generation, index}: Cancel after
// the event ran sees a stale generation and is a true O(1) no-op — the
// original queue's tombstone set grew without bound on exactly that
// pattern. Cancel of a pending event leaves a tombstone; the heap is
// rebuilt without them once they outnumber live events, so cancel-heavy
// timeouts keep the arena within about twice the live count.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/arena.h"
#include "src/util/sim_time.h"
#include "src/util/small_fn.h"

namespace lottery {

class EventQueue {
 public:
  using Handler = util::SmallFn<void(SimTime), 56>;
  using EventId = uint64_t;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `handler` to run at `when`; returns an id usable with Cancel.
  EventId Schedule(SimTime when, Handler handler);
  // Cancels a pending event; no-op if it already ran or was cancelled.
  void Cancel(EventId id);

  bool empty() const { return live_ == 0; }
  // Time of the earliest pending event; undefined when empty.
  SimTime next_time() const {
    return SimTime::FromNanos(heap_.front().when_ns);
  }

  // Runs every event with time <= limit in order; returns how many ran.
  // Handlers may schedule further events (also run if they fall within
  // the limit).
  size_t RunUntil(SimTime limit);

  size_t pending() const { return live_; }

  // Introspection for tests/benches: arena capacity in event records.
  size_t capacity() const { return nodes_.size(); }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  enum class NodeState : uint8_t { kFree, kPending, kCancelled };

  struct Node {
    uint32_t next = kNil;  // free list link
    uint32_t gen = 1;      // bumped on free; stale ids mismatch
    NodeState state = NodeState::kFree;
  };

  // Heap entries carry the ordering key so sifts stay inside the
  // contiguous heap vector instead of chasing indices into the arena.
  struct Entry {
    int64_t when_ns;
    uint64_t seq;
    uint32_t index;
  };
  static_assert(sizeof(Entry) == 24, "keep heap entries compact");
  // Heap comparator: std::*_heap keep the greatest element on top, so
  // "later" ordering makes heap_.front() the earliest (when, seq).
  static bool Later(const Entry& a, const Entry& b) {
    return a.when_ns > b.when_ns ||
           (a.when_ns == b.when_ns && a.seq > b.seq);
  }

  void FreeNode(uint32_t index);
  void PopTop();
  // Keeps heap_.front() live: frees tombstones that surface at the top.
  void DropCancelledTop();
  // Rebuilds the heap without its tombstones and frees their records.
  void PurgeCancelled();

  util::ChunkedVector<Node> nodes_;
  // handlers_[i] belongs to nodes_[i]. A fired handler runs in place; it
  // and a cancelled one are released lazily, overwritten on slot reuse.
  util::ChunkedVector<Handler> handlers_;
  uint32_t free_head_ = kNil;

  // Min-heap by (when, seq) whose front is live; the other
  // heap_.size() - live_ entries are tombstones.
  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;  // pending and not cancelled
};

}  // namespace lottery

#endif  // SRC_SIM_EVENT_QUEUE_H_
