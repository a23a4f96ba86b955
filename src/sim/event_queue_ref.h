// ReferenceEventQueue: the original binary-heap event queue, preserved
// verbatim (std::function handlers and all) as the oracle for EventQueue.
//
// tests/event_queue_diff_test.cc replays randomized schedule/cancel/run
// traces through both queues and requires identical execution order;
// bench/bench_scale.cc's Part A runs it as the baseline EventQueue is
// compared against. Keep its semantics frozen — including the lazy
// drop-at-head cancellation — so it stays a faithful model of the
// original behaviour.

#ifndef SRC_SIM_EVENT_QUEUE_REF_H_
#define SRC_SIM_EVENT_QUEUE_REF_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/util/sim_time.h"

namespace lottery {

class ReferenceEventQueue {
 public:
  // The original queue stored std::function handlers (heap-allocating any
  // capture beyond the small-object buffer); kept so baseline measurements
  // include that cost.
  using Handler = std::function<void(SimTime)>;
  using EventId = EventQueue::EventId;

  EventId Schedule(SimTime when, Handler handler) {
    const EventId id = next_id_++;
    heap_.push(Event{when, next_seq_++, id, std::move(handler)});
    return id;
  }

  void Cancel(EventId id) { cancelled_.insert(id); }

  bool empty() const {
    const_cast<ReferenceEventQueue*>(this)->DropCancelledHead();
    return heap_.empty();
  }

  SimTime next_time() const {
    const_cast<ReferenceEventQueue*>(this)->DropCancelledHead();
    return heap_.top().when;
  }

  size_t RunUntil(SimTime limit) {
    size_t ran = 0;
    for (;;) {
      DropCancelledHead();
      if (heap_.empty() || heap_.top().when > limit) {
        return ran;
      }
      // Pop-by-copy exactly as the original implementation did: copying the
      // Event copies its std::function, re-allocating any out-of-line
      // capture block. Baseline measurements must include that cost.
      Event event = heap_.top();
      heap_.pop();
      event.handler(event.when);
      ++ran;
    }
  }

  size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    EventId id;
    Handler handler;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };

  void DropCancelledHead() {
    while (!heap_.empty() && cancelled_.count(heap_.top().id) > 0) {
      cancelled_.erase(heap_.top().id);
      heap_.pop();
    }
  }

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::unordered_set<EventId> cancelled_;
  uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
};

}  // namespace lottery

#endif  // SRC_SIM_EVENT_QUEUE_REF_H_
