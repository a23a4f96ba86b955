// Differential test: the EventQueue vs the preserved original binary-heap
// ReferenceEventQueue.
//
// Both queues are driven through identical randomized traces of Schedule /
// Cancel / RunUntil operations (including handlers that re-schedule and
// cancel from inside the run loop), and must execute the same events in the
// same order at the same times. The generator mixes dense (when, seq) ties,
// near and mid-range deltas, and far-future times beyond 2^48 ns, so order
// is checked at every time scale the simulator could produce.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_queue.h"
#include "src/sim/event_queue_ref.h"
#include "src/util/fastrand.h"

namespace lottery {
namespace {

SimTime At(int64_t ns) { return SimTime::FromNanos(ns); }

// Time deltas from exact ties (0-3 ns, which only the FIFO seq orders)
// through microseconds, milliseconds and hours, to 2^48+ ns: the far end
// checks that keys far apart still order exactly.
int64_t RandomDelta(FastRand& rng) {
  switch (rng.NextBelow(8)) {
    case 0:
      return static_cast<int64_t>(rng.NextBelow(4));  // dense ties
    case 1:
      return static_cast<int64_t>(rng.NextBelow(1u << 16));  // near
    case 2:
      return static_cast<int64_t>(rng.NextBelow(1u << 24));  // ~16 ms
    case 3:
      // NextBelow64: 2^31 exceeds the 31-bit generator's single-draw range.
      return static_cast<int64_t>(rng.NextBelow64(uint64_t{1} << 31));
    case 4:
      return static_cast<int64_t>(rng.NextBelow64(uint64_t{1} << 44));  // hours
    case 5:
      return (int64_t{1} << 48) +
             static_cast<int64_t>(rng.NextBelow64(uint64_t{1} << 49));
    default:
      return static_cast<int64_t>(rng.NextBelow(1u << 20));
  }
}

TEST(EventQueueDiff, RandomizedTracesMatchReferenceHeap) {
  for (const uint32_t seed : {1u, 7u, 42u, 1234u, 987654321u}) {
    EventQueue queue;
    ReferenceEventQueue ref;
    std::vector<std::pair<int, int64_t>> log_a;
    std::vector<std::pair<int, int64_t>> log_b;
    std::vector<EventQueue::EventId> ids_a;
    std::vector<ReferenceEventQueue::EventId> ids_b;

    // One generator drives both queues with identical operations; the two
    // id vectors stay index-aligned because every Schedule is mirrored.
    FastRand rng(seed);
    int64_t now = 0;
    int label = 0;

    for (int step = 0; step < 2000; ++step) {
      const uint32_t op = rng.NextBelow(100);
      if (op < 55) {
        const SimTime when = At(now + RandomDelta(rng));
        const int this_label = label++;
        ids_a.push_back(queue.Schedule(when, [&log_a, this_label](SimTime t) {
          log_a.emplace_back(this_label, t.nanos());
        }));
        ids_b.push_back(ref.Schedule(when, [&log_b, this_label](SimTime t) {
          log_b.emplace_back(this_label, t.nanos());
        }));
      } else if (op < 70 && !ids_a.empty()) {
        // Cancel a random id — often one that already ran (stale no-op).
        const size_t victim =
            rng.NextBelow(static_cast<uint32_t>(ids_a.size()));
        queue.Cancel(ids_a[victim]);
        ref.Cancel(ids_b[victim]);
      } else if (op < 85) {
        ASSERT_EQ(queue.empty(), ref.empty()) << "seed " << seed;
        if (!queue.empty()) {
          ASSERT_EQ(queue.next_time(), ref.next_time()) << "seed " << seed;
          now = queue.next_time().nanos();
        }
      } else {
        const SimTime limit = At(now + RandomDelta(rng) * 4);
        const size_t ran_a = queue.RunUntil(limit);
        const size_t ran_b = ref.RunUntil(limit);
        ASSERT_EQ(ran_a, ran_b) << "seed " << seed << " step " << step;
        now = limit.nanos();
      }
    }

    // Drain everything left and compare the complete execution logs.
    queue.RunUntil(At(INT64_MAX));
    ref.RunUntil(At(INT64_MAX));
    EXPECT_TRUE(queue.empty());
    ASSERT_EQ(log_a.size(), log_b.size()) << "seed " << seed;
    for (size_t i = 0; i < log_a.size(); ++i) {
      ASSERT_EQ(log_a[i], log_b[i]) << "seed " << seed << " pos " << i;
    }
  }
}

// Handlers that schedule and cancel from inside RunUntil, exercising arena
// record reuse while the run loop is mid-flight.
template <typename Queue>
struct ChainRig {
  Queue queue;
  FastRand rng;
  std::vector<uint64_t> pending;
  std::vector<std::pair<int, int64_t>> log;
  int label = 0;

  explicit ChainRig(uint32_t seed) : rng(seed) {}

  // Each firing logs itself, may spawn up to two successors, and sometimes
  // cancels a pending (or stale) sibling id.
  void Fire(int my_label, SimTime t) {
    log.emplace_back(my_label, t.nanos());
    const uint32_t spawn = rng.NextBelow(3);
    for (uint32_t i = 0; i < spawn; ++i) {
      const int64_t delta = RandomDelta(rng);
      const int child = label++;
      pending.push_back(
          queue.Schedule(t + SimDuration::Nanos(delta),
                         [this, child](SimTime ct) { Fire(child, ct); }));
    }
    if (!pending.empty() && rng.NextBelow(4) == 0) {
      const size_t victim =
          rng.NextBelow(static_cast<uint32_t>(pending.size()));
      queue.Cancel(pending[victim]);
    }
  }

  void Drive() {
    for (int i = 0; i < 50; ++i) {
      const int root = label++;
      pending.push_back(queue.Schedule(
          At(RandomDelta(rng)), [this, root](SimTime t) { Fire(root, t); }));
    }
    queue.RunUntil(At(int64_t{1} << 52));
  }
};

TEST(EventQueueDiff, ReentrantHandlersMatchReferenceHeap) {
  for (const uint32_t seed : {3u, 99u, 2026u}) {
    ChainRig<EventQueue> queue(seed);
    ChainRig<ReferenceEventQueue> ref(seed);
    queue.Drive();
    ref.Drive();

    EXPECT_GT(queue.log.size(), 50u) << "chains never propagated";
    ASSERT_EQ(queue.log.size(), ref.log.size()) << "seed " << seed;
    for (size_t i = 0; i < queue.log.size(); ++i) {
      ASSERT_EQ(queue.log[i], ref.log[i]) << "seed " << seed << " pos " << i;
    }
  }
}

// The Cancel-id-leak regression: cancelling ids after their events ran (or
// repeatedly) must not grow any internal structure. The original heap queue
// kept every such id in a tombstone set forever; EventQueue rejects stale
// generations in O(1) and reuses arena slots.
TEST(EventQueueDiff, StaleCancelsDoNotAccumulateState) {
  EventQueue q;
  std::vector<EventQueue::EventId> ids;
  for (int64_t round = 0; round < 1000; ++round) {
    ids.clear();
    for (int64_t i = 0; i < 8; ++i) {
      ids.push_back(q.Schedule(At(round * 100 + i), [](SimTime) {}));
    }
    q.RunUntil(At(round * 100 + 100));
    // All already ran: every Cancel is a stale no-op.
    for (const auto id : ids) {
      q.Cancel(id);
      q.Cancel(id);
    }
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  // 8000 events flowed through, but the arena only ever held one round's
  // worth of records: slots were recycled, not leaked.
  EXPECT_LE(q.capacity(), 64u);
}

// Far-future events (past 2^48 ns, beyond any bucketed queue's horizon) must
// still fire in exact order, interleaved with near events.
TEST(EventQueueDiff, OverflowHorizonOrdering) {
  EventQueue q;
  std::vector<int> order;
  const int64_t far = int64_t{1} << 50;
  q.Schedule(At(far + 5), [&](SimTime) { order.push_back(4); });
  q.Schedule(At(10), [&](SimTime) { order.push_back(1); });
  q.Schedule(At(far), [&](SimTime) { order.push_back(3); });
  q.Schedule(At(far), [&](SimTime) { order.push_back(5); });  // loses FIFO tie
  q.Schedule(At(20), [&](SimTime) { order.push_back(2); });
  EXPECT_EQ(q.next_time(), At(10));
  q.RunUntil(At(far + 100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 4}));
}

// bench_scale Part A's pattern at n = 1000: n timers with 1-8 ms periods,
// each fire cancelling its timer's pending 25 ms timeout and re-arming it.
// Every timeout dies cancelled, so their records must be reclaimed in step
// with the live population, not only when they reach the front of the
// queue 25 ms later (which would hold several timeouts per timer).
struct TimeoutRig {
  EventQueue queue;
  std::vector<int64_t> period_ns;
  std::vector<EventQueue::EventId> timeout;
  uint64_t fired = 0;
  uint64_t timeouts_fired = 0;
  size_t peak_pending = 0;

  void ArmTimeout(size_t i, SimTime now) {
    timeout[i] = queue.Schedule(now + SimDuration::Millis(25),
                                [this](SimTime) { ++timeouts_fired; });
  }

  void Arm(size_t i, SimTime when) {
    queue.Schedule(when, [this, i](SimTime t) {
      ++fired;
      queue.Cancel(timeout[i]);
      ArmTimeout(i, t);
      Arm(i, t + SimDuration::Nanos(period_ns[i]));
      peak_pending = std::max(peak_pending, queue.pending());
    });
  }
};

TEST(EventQueueDiff, CancelHeavyTimeoutsKeepArenaNearLive) {
  constexpr size_t kTimers = 1000;
  TimeoutRig rig;
  FastRand rng(42);
  for (size_t i = 0; i < kTimers; ++i) {
    rig.period_ns.push_back(1'000'000 + rng.NextBelow(7'000'000));
  }
  rig.timeout.resize(kTimers);
  for (size_t i = 0; i < kTimers; ++i) {
    rig.ArmTimeout(i, At(0));
    rig.Arm(i, At(rig.period_ns[i]));
  }
  rig.peak_pending = rig.queue.pending();
  int64_t limit_ns = 0;
  while (rig.fired < 24 * kTimers) {
    limit_ns += 8'000'000;
    rig.queue.RunUntil(At(limit_ns));
  }
  EXPECT_EQ(rig.timeouts_fired, 0u);
  EXPECT_EQ(rig.peak_pending, 2 * kTimers);
  EXPECT_LE(rig.queue.capacity(), 3 * rig.peak_pending);
}

}  // namespace
}  // namespace lottery
