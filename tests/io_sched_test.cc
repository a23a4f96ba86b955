// Tests for lottery-scheduled disk bandwidth (Section 6's generalization to
// diverse resources), and for the stepping invariance that the disk and the
// cell switch (src/sim/crossbar.h) both keep.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/crossbar.h"
#include "src/sim/disk.h"

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

// --- Stepping invariance ------------------------------------------------------

// A backlogged device must do the same work however its caller steps it to
// a horizon: in one call, or in many short or uneven ones. Every output is
// compared exactly, so one extra, lost or shifted slot, draw or request
// shows.

constexpr int64_t kHorizonNs = 10 * 1000 * 1000;  // 10 ms

SimTime AtNs(int64_t ns) { return SimTime::Zero() + SimDuration::Nanos(ns); }

// Advances `device` to the horizon in calls of `step_ns`, the last one
// clamped to the horizon.
template <typename Device>
void StepToHorizon(Device& device, int64_t step_ns) {
  for (int64_t t = step_ns; t < kHorizonNs; t += step_ns) {
    device.AdvanceTo(AtNs(t));
  }
  device.AdvanceTo(AtNs(kHorizonNs));
}

void AppendStats(const obs::StreamingStats& stats, std::vector<double>* out) {
  out->insert(out->end(), {static_cast<double>(stats.count()), stats.mean(),
                           stats.min(), stats.max()});
}

// A switch of `ports` ports with 3 us cells and three circuits at 3:2:1
// tickets per (input, output) pair, each buffered with more cells at time
// zero than the horizon can send. Returns the totals, then each circuit's
// sent, dropped and backlog counts and its delay statistics.
std::vector<double> SwitchOutputs(int ports, int64_t step_ns) {
  FastRand rng(17);
  CrossbarSwitch::Options o;
  o.num_ports = ports;
  o.cell_time = SimDuration::Micros(3);
  o.buffer_cells = 2048;
  CrossbarSwitch sw(o, &rng);
  std::vector<CrossbarSwitch::CircuitId> vcs;
  for (int in = 0; in < ports; ++in) {
    for (int out = 0; out < ports; ++out) {
      for (const uint64_t tickets : {uint64_t{3}, uint64_t{2}, uint64_t{1}}) {
        vcs.push_back(sw.AddCircuit(in, out, tickets));
      }
    }
  }
  for (const auto vc : vcs) {
    while (sw.Enqueue(vc, AtNs(0))) {
    }
  }
  StepToHorizon(sw, step_ns);
  std::vector<double> out = {static_cast<double>(sw.total_cells_sent()),
                             static_cast<double>(sw.slots_elapsed()),
                             static_cast<double>(sw.now().nanos())};
  for (const auto vc : vcs) {
    EXPECT_GT(sw.Backlog(vc), 0u) << "circuit " << vc << " drained";
    out.insert(out.end(), {static_cast<double>(sw.CellsSent(vc)),
                           static_cast<double>(sw.CellsDropped(vc)),
                           static_cast<double>(sw.Backlog(vc))});
    AppendStats(sw.Delay(vc), &out);
  }
  return out;
}

// A 1 GB/s disk with a 10 us seek and three clients at 3:2:1 tickets, each
// with more 4-12 KB requests queued at time zero than the horizon can
// serve. Returns each client's bytes, requests and queue depth and its
// queueing-delay statistics.
std::vector<double> DiskOutputs(int64_t step_ns) {
  FastRand rng(17);
  DiskScheduler::Options o;
  o.bytes_per_second = 1000 * 1000 * 1000;
  o.seek_overhead = SimDuration::Micros(10);
  DiskScheduler disk(o, &rng);
  for (DiskScheduler::ClientId c = 1; c <= 3; ++c) {
    disk.RegisterClient(c, 4 - c);
    for (int i = 0; i < 1000; ++i) {
      disk.Submit(c, 4096 * (1 + i % 3), AtNs(0));
    }
  }
  StepToHorizon(disk, step_ns);
  std::vector<double> out = {static_cast<double>(disk.now().nanos())};
  for (DiskScheduler::ClientId c = 1; c <= 3; ++c) {
    EXPECT_GT(disk.QueueDepth(c), 0u) << "client " << c << " drained";
    out.insert(out.end(), {static_cast<double>(disk.BytesServed(c)),
                           static_cast<double>(disk.RequestsServed(c)),
                           static_cast<double>(disk.QueueDepth(c))});
    AppendStats(disk.QueueDelay(c), &out);
  }
  return out;
}

// The horizon in one call, in 1000 calls of 10 us and in 997 uneven calls
// of 10.031 us must give the same outputs.
template <typename Run>
void ExpectSameForEveryStepping(Run run) {
  const std::vector<double> one_call = run(kHorizonNs);
  for (const int64_t step_ns : {10000, 10031}) {
    const std::vector<double> stepped = run(step_ns);
    ASSERT_EQ(stepped.size(), one_call.size());
    const auto diff =
        std::mismatch(stepped.begin(), stepped.end(), one_call.begin());
    EXPECT_TRUE(diff.first == stepped.end())
        << "steps of " << step_ns << " ns: output "
        << (diff.first - stepped.begin()) << " is " << *diff.first
        << ", one call gives " << *diff.second;
  }
}

TEST(SteppingInvariance, OnePortSwitch) {
  ExpectSameForEveryStepping(
      [](int64_t step_ns) { return SwitchOutputs(1, step_ns); });
}

TEST(SteppingInvariance, EightPortSwitch) {
  ExpectSameForEveryStepping(
      [](int64_t step_ns) { return SwitchOutputs(8, step_ns); });
}

TEST(SteppingInvariance, Disk) { ExpectSameForEveryStepping(DiskOutputs); }

}  // namespace
}  // namespace lottery
