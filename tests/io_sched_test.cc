// Tests for lottery-scheduled disk bandwidth and link (virtual circuit)
// scheduling (Section 6's generalization to diverse resources).

#include <gtest/gtest.h>

#include "src/sim/disk.h"
#include "src/sim/link.h"

namespace lottery {
namespace {

SimTime At(int64_t ms) { return SimTime::Zero() + SimDuration::Millis(ms); }

// --- DiskScheduler ------------------------------------------------------------

DiskScheduler::Options DiskOpts() {
  DiskScheduler::Options o;
  o.bytes_per_second = 1000000;  // 1 MB/s
  o.seek_overhead = SimDuration::Millis(1);
  return o;
}

TEST(Disk, RejectsBadConfig) {
  FastRand rng(1);
  DiskScheduler::Options bad;
  bad.bytes_per_second = 0;
  EXPECT_THROW(DiskScheduler(bad, &rng), std::invalid_argument);
}

TEST(Disk, ServesSingleRequest) {
  FastRand rng(1);
  DiskScheduler disk(DiskOpts(), &rng);
  disk.RegisterClient(1, 10);
  disk.Submit(1, 100000, At(0));  // 100 KB: 100 ms transfer + 1 ms seek
  disk.AdvanceTo(At(500));
  EXPECT_EQ(disk.BytesServed(1), 100000);
  EXPECT_EQ(disk.RequestsServed(1), 1u);
  EXPECT_TRUE(disk.idle());
}

TEST(Disk, RejectsBadSubmissions) {
  FastRand rng(1);
  DiskScheduler disk(DiskOpts(), &rng);
  disk.RegisterClient(1, 10);
  EXPECT_THROW(disk.Submit(1, 0, At(0)), std::invalid_argument);
  EXPECT_THROW(disk.Submit(2, 10, At(0)), std::invalid_argument);
}

TEST(Disk, FutureSubmissionsWaitForTheirTime) {
  FastRand rng(1);
  DiskScheduler disk(DiskOpts(), &rng);
  disk.RegisterClient(1, 10);
  disk.Submit(1, 1000, At(100));
  disk.AdvanceTo(At(50));
  EXPECT_EQ(disk.RequestsServed(1), 0u);
  disk.AdvanceTo(At(200));
  EXPECT_EQ(disk.RequestsServed(1), 1u);
}

TEST(Disk, BandwidthSharesFollowTickets) {
  // Two permanently backlogged clients with 3:1 tickets split the
  // device's bytes roughly 3:1.
  FastRand rng(4242);
  DiskScheduler disk(DiskOpts(), &rng);
  disk.RegisterClient(1, 300);
  disk.RegisterClient(2, 100);
  // Enough work that neither queue drains within the horizon (each request
  // takes 11 ms; 40000 requests is 440 s of demand for a 200 s run).
  for (int i = 0; i < 20000; ++i) {
    disk.Submit(1, 10000, At(0));
    disk.Submit(2, 10000, At(0));
  }
  disk.AdvanceTo(At(200000));  // 200 s
  EXPECT_GT(disk.QueueDepth(1), 0u);
  EXPECT_GT(disk.QueueDepth(2), 0u);
  ASSERT_GT(disk.BytesServed(2), 0);
  const double ratio = static_cast<double>(disk.BytesServed(1)) /
                       static_cast<double>(disk.BytesServed(2));
  EXPECT_NEAR(ratio, 3.0, 0.35);
}

TEST(Disk, QueueDelayLowerForFundedClient) {
  FastRand rng(7);
  DiskScheduler disk(DiskOpts(), &rng);
  disk.RegisterClient(1, 900);
  disk.RegisterClient(2, 100);
  for (int i = 0; i < 2000; ++i) {
    disk.Submit(1, 5000, At(0));
    disk.Submit(2, 5000, At(0));
  }
  disk.AdvanceTo(At(60000));
  ASSERT_GT(disk.QueueDelay(1).count(), 100u);
  ASSERT_GT(disk.QueueDelay(2).count(), 100u);
  EXPECT_LT(disk.QueueDelay(1).mean(), disk.QueueDelay(2).mean());
}

TEST(Disk, CompletionCallbacksFireAtServiceEnd) {
  FastRand rng(2);
  DiskScheduler disk(DiskOpts(), &rng);
  disk.RegisterClient(1, 10);
  std::vector<double> completions;
  // 100 KB at 1 MB/s + 1 ms seek = 101 ms each, served back to back.
  for (int i = 0; i < 3; ++i) {
    disk.Submit(1, 100000, At(0), [&completions](SimTime when) {
      completions.push_back(when.ToSecondsF());
    });
  }
  disk.AdvanceTo(At(1000));
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_NEAR(completions[0], 0.101, 1e-9);
  EXPECT_NEAR(completions[1], 0.202, 1e-9);
  EXPECT_NEAR(completions[2], 0.303, 1e-9);
}

TEST(Disk, RequestsSpanAdvanceWindows) {
  FastRand rng(1);
  DiskScheduler disk(DiskOpts(), &rng);
  disk.RegisterClient(1, 10);
  disk.Submit(1, 1000000, At(0));  // 1.001 s including seek
  disk.Submit(1, 1000000, At(0));
  disk.AdvanceTo(At(1500));
  // First request done at 1.001 s; second is in flight across the window.
  EXPECT_EQ(disk.RequestsServed(1), 1u);
  EXPECT_EQ(disk.QueueDepth(1), 0u);
  EXPECT_TRUE(disk.busy());
  // A long request also completes even if driven in tiny windows.
  for (int64_t t = 1500; t <= 2600; t += 10) {
    disk.AdvanceTo(At(t));
  }
  EXPECT_EQ(disk.RequestsServed(1), 2u);
  EXPECT_FALSE(disk.busy());
  EXPECT_TRUE(disk.idle());
}

// --- LinkScheduler --------------------------------------------------------------

LinkScheduler::Options LinkOpts() {
  LinkScheduler::Options o;
  o.cell_time = SimDuration::Micros(10);
  o.buffer_cells = 64;
  return o;
}

TEST(Link, RejectsBadConfig) {
  FastRand rng(1);
  LinkScheduler::Options bad;
  bad.cell_time = SimDuration::Nanos(0);
  EXPECT_THROW(LinkScheduler(bad, &rng), std::invalid_argument);
}

TEST(Link, SendsBufferedCells) {
  FastRand rng(1);
  LinkScheduler link(LinkOpts(), &rng);
  link.RegisterCircuit(1, 10);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(link.Enqueue(1, At(0)));
  }
  link.AdvanceTo(At(10));
  EXPECT_EQ(link.CellsSent(1), 10u);
  EXPECT_EQ(link.Backlog(1), 0u);
}

TEST(Link, DropsWhenBufferFull) {
  FastRand rng(1);
  LinkScheduler link(LinkOpts(), &rng);
  link.RegisterCircuit(1, 10);
  for (size_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(link.Enqueue(1, At(0)));
  }
  EXPECT_FALSE(link.Enqueue(1, At(0)));
  EXPECT_EQ(link.CellsDropped(1), 1u);
}

TEST(Link, CongestedSharesFollowTickets) {
  // Three circuits, 3:2:1, all saturated: throughput splits 3:2:1.
  FastRand rng(31337);
  LinkScheduler::Options lopts = LinkOpts();
  lopts.buffer_cells = 512;
  LinkScheduler link(lopts, &rng);
  link.RegisterCircuit(1, 300);
  link.RegisterCircuit(2, 200);
  link.RegisterCircuit(3, 100);
  SimTime now = At(0);
  // Keep every circuit saturated: the link moves 100 cells/ms, so refill
  // each buffer to 256 every 1 ms step (drain per circuit <= 100).
  for (int step = 0; step < 10000; ++step) {
    for (LinkScheduler::CircuitId c : {1u, 2u, 3u}) {
      while (link.Backlog(c) < 512) {
        link.Enqueue(c, now);
      }
    }
    now = now + SimDuration::Millis(1);
    link.AdvanceTo(now);
  }
  const double total = static_cast<double>(
      link.CellsSent(1) + link.CellsSent(2) + link.CellsSent(3));
  EXPECT_NEAR(static_cast<double>(link.CellsSent(1)) / total, 0.5, 0.03);
  EXPECT_NEAR(static_cast<double>(link.CellsSent(2)) / total, 1.0 / 3, 0.03);
  EXPECT_NEAR(static_cast<double>(link.CellsSent(3)) / total, 1.0 / 6, 0.03);
}

TEST(Link, UncongestedCircuitUnaffectedByOthersTickets) {
  // A lightly loaded circuit gets everything it asks for even with few
  // tickets ("a client will obtain more of a lightly contended resource").
  FastRand rng(5);
  LinkScheduler link(LinkOpts(), &rng);
  link.RegisterCircuit(1, 1);    // light, poor
  link.RegisterCircuit(2, 100);  // heavy, rich
  SimTime now = At(0);
  uint64_t offered1 = 0;
  for (int step = 0; step < 1000; ++step) {
    // Circuit 1 offers 10 cells/ms (10% of link); circuit 2 saturates.
    for (int i = 0; i < 10; ++i) {
      if (link.Enqueue(1, now)) {
        ++offered1;
      }
    }
    while (link.Backlog(2) < 32) {
      link.Enqueue(2, now);
    }
    now = now + SimDuration::Millis(1);
    link.AdvanceTo(now);
  }
  link.AdvanceTo(now + SimDuration::Millis(10));
  EXPECT_GT(static_cast<double>(link.CellsSent(1)),
            0.95 * static_cast<double>(offered1));
}

TEST(Link, DelayTracksTickets) {
  FastRand rng(77);
  LinkScheduler link(LinkOpts(), &rng);
  link.RegisterCircuit(1, 400);
  link.RegisterCircuit(2, 100);
  SimTime now = At(0);
  // Offered load 2 x 64 cells/ms against 100 cells/ms of capacity: the
  // port stays congested and queueing delay differentiates by tickets.
  for (int step = 0; step < 5000; ++step) {
    for (LinkScheduler::CircuitId c : {1u, 2u}) {
      while (link.Backlog(c) < 64) {
        link.Enqueue(c, now);
      }
    }
    now = now + SimDuration::Millis(1);
    link.AdvanceTo(now);
  }
  EXPECT_LT(link.Delay(1).mean(), link.Delay(2).mean());
}

}  // namespace
}  // namespace lottery
