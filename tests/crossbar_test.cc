// Tests for the lottery-matched crossbar switch, and for its one-port form,
// a single congested link.

#include "src/sim/crossbar.h"

#include <gtest/gtest.h>

namespace lottery {
namespace {

SimTime At(int64_t us) { return SimTime::Zero() + SimDuration::Micros(us); }

CrossbarSwitch::Options Opts(int ports, int rounds = 1) {
  CrossbarSwitch::Options o;
  o.num_ports = ports;
  o.cell_time = SimDuration::Micros(1);
  o.buffer_cells = 4096;
  o.matching_rounds = rounds;
  return o;
}

// One port: a link moving 100 cells per millisecond.
CrossbarSwitch::Options LinkOpts() {
  CrossbarSwitch::Options o = Opts(1);
  o.cell_time = SimDuration::Micros(10);
  o.buffer_cells = 64;
  return o;
}

TEST(Crossbar, RejectsBadConfig) {
  FastRand rng(1);
  CrossbarSwitch::Options bad = Opts(0);
  EXPECT_THROW(CrossbarSwitch(bad, &rng), std::invalid_argument);
  bad = Opts(2);
  bad.matching_rounds = 0;
  EXPECT_THROW(CrossbarSwitch(bad, &rng), std::invalid_argument);
  for (const int64_t cell_ns : {0, -1}) {
    bad = LinkOpts();
    bad.cell_time = SimDuration::Nanos(cell_ns);
    EXPECT_THROW(CrossbarSwitch(bad, &rng), std::invalid_argument);
  }
  CrossbarSwitch sw(Opts(2), &rng);
  EXPECT_THROW(sw.AddCircuit(2, 0, 1), std::invalid_argument);
  EXPECT_THROW(sw.AddCircuit(0, -1, 1), std::invalid_argument);
}

TEST(Crossbar, SingleCircuitFullThroughput) {
  FastRand rng(2);
  CrossbarSwitch sw(Opts(2), &rng);
  const auto vc = sw.AddCircuit(0, 1, 10);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(sw.Enqueue(vc, At(0)));
  }
  sw.AdvanceTo(At(1000));
  EXPECT_EQ(sw.CellsSent(vc), 1000u);
  EXPECT_EQ(sw.Backlog(vc), 0u);
}

TEST(Crossbar, ConservationSentPlusBacklog) {
  FastRand rng(3);
  CrossbarSwitch sw(Opts(4), &rng);
  std::vector<CrossbarSwitch::CircuitId> vcs;
  for (int i = 0; i < 4; ++i) {
    vcs.push_back(sw.AddCircuit(i, (i + 1) % 4, 5));
  }
  uint64_t enqueued = 0;
  for (int i = 0; i < 500; ++i) {
    for (const auto vc : vcs) {
      if (sw.Enqueue(vc, At(0))) {
        ++enqueued;
      }
    }
  }
  sw.AdvanceTo(At(300));
  uint64_t accounted = 0;
  for (const auto vc : vcs) {
    accounted += sw.CellsSent(vc) + sw.Backlog(vc);
  }
  EXPECT_EQ(accounted, enqueued);
}

TEST(Crossbar, OutputContentionSharesByTickets) {
  // Two inputs feed one output 3:1; no other traffic, so the output is the
  // only bottleneck.
  FastRand rng(4);
  CrossbarSwitch sw(Opts(2), &rng);
  const auto rich = sw.AddCircuit(0, 0, 300);
  const auto poor = sw.AddCircuit(1, 0, 100);
  SimTime now = At(0);
  for (int step = 0; step < 200; ++step) {
    while (sw.Backlog(rich) < 512) {
      sw.Enqueue(rich, now);
    }
    while (sw.Backlog(poor) < 512) {
      sw.Enqueue(poor, now);
    }
    now = now + SimDuration::Micros(100);
    sw.AdvanceTo(now);
  }
  const double ratio = static_cast<double>(sw.CellsSent(rich)) /
                       static_cast<double>(sw.CellsSent(poor));
  EXPECT_NEAR(ratio, 3.0, 0.4);
  // Output fully utilized: one cell per slot.
  EXPECT_EQ(sw.CellsSent(rich) + sw.CellsSent(poor), sw.slots_elapsed());
}

TEST(Crossbar, InputContentionSharesByTickets) {
  // One input feeds two outputs 2:1: the input can send only one cell per
  // slot, so its capacity splits by tickets.
  FastRand rng(5);
  CrossbarSwitch sw(Opts(2), &rng);
  const auto big = sw.AddCircuit(0, 0, 200);
  const auto small = sw.AddCircuit(0, 1, 100);
  SimTime now = At(0);
  for (int step = 0; step < 200; ++step) {
    while (sw.Backlog(big) < 512) {
      sw.Enqueue(big, now);
    }
    while (sw.Backlog(small) < 512) {
      sw.Enqueue(small, now);
    }
    now = now + SimDuration::Micros(100);
    sw.AdvanceTo(now);
  }
  EXPECT_EQ(sw.CellsSent(big) + sw.CellsSent(small), sw.slots_elapsed());
  const double ratio = static_cast<double>(sw.CellsSent(big)) /
                       static_cast<double>(sw.CellsSent(small));
  EXPECT_NEAR(ratio, 2.0, 0.3);
}

TEST(Crossbar, DropsWhenBufferFull) {
  FastRand rng(6);
  CrossbarSwitch::Options o = Opts(2);
  o.buffer_cells = 4;
  CrossbarSwitch sw(o, &rng);
  const auto vc = sw.AddCircuit(0, 0, 1);
  for (int i = 0; i < 6; ++i) {
    sw.Enqueue(vc, At(0));
  }
  EXPECT_EQ(sw.Backlog(vc), 4u);
  EXPECT_EQ(sw.CellsDropped(vc), 2u);
}

TEST(Crossbar, OnePortUncongestedCircuitUnaffectedByOthersTickets) {
  // A lightly loaded circuit gets everything it asks for even with few
  // tickets ("a client will obtain more of a lightly contended resource").
  FastRand rng(5);
  CrossbarSwitch link(LinkOpts(), &rng);
  const auto light = link.AddCircuit(0, 0, 1);    // light, poor
  const auto heavy = link.AddCircuit(0, 0, 100);  // heavy, rich
  SimTime now = At(0);
  uint64_t offered = 0;
  for (int step = 0; step < 1000; ++step) {
    // The light circuit offers 10 cells/ms (10% of the link); the heavy
    // one refills its buffer every millisecond.
    for (int i = 0; i < 10; ++i) {
      if (link.Enqueue(light, now)) {
        ++offered;
      }
    }
    while (link.Backlog(heavy) < 32) {
      link.Enqueue(heavy, now);
    }
    now = now + SimDuration::Millis(1);
    link.AdvanceTo(now);
  }
  link.AdvanceTo(now + SimDuration::Millis(10));
  EXPECT_GT(static_cast<double>(link.CellsSent(light)),
            0.95 * static_cast<double>(offered));
}

TEST(Crossbar, OnePortDelayTracksTickets) {
  FastRand rng(77);
  CrossbarSwitch link(LinkOpts(), &rng);
  const auto rich = link.AddCircuit(0, 0, 400);
  const auto poor = link.AddCircuit(0, 0, 100);
  SimTime now = At(0);
  // Offered load 2 x 64 cells/ms against 100 cells/ms of capacity: the
  // link stays congested and queueing delay differentiates by tickets.
  for (int step = 0; step < 5000; ++step) {
    for (const auto vc : {rich, poor}) {
      while (link.Backlog(vc) < 64) {
        link.Enqueue(vc, now);
      }
    }
    now = now + SimDuration::Millis(1);
    link.AdvanceTo(now);
  }
  EXPECT_LT(link.Delay(rich).mean(), link.Delay(poor).mean());
}

// The classic randomized-matching result: with uniform saturated traffic,
// one proposal round achieves ~(1 - 1/e) ~ 0.63 of the bisection
// bandwidth; more rounds approach 1.
class MatchingRounds : public ::testing::TestWithParam<int> {};

TEST_P(MatchingRounds, SaturationThroughput) {
  const int rounds = GetParam();
  FastRand rng(static_cast<uint32_t>(100 + rounds));
  constexpr int kPorts = 8;
  CrossbarSwitch sw(Opts(kPorts, rounds), &rng);
  std::vector<CrossbarSwitch::CircuitId> vcs;
  for (int in = 0; in < kPorts; ++in) {
    for (int out = 0; out < kPorts; ++out) {
      vcs.push_back(sw.AddCircuit(in, out, 10));
    }
  }
  SimTime now = At(0);
  for (int step = 0; step < 50; ++step) {
    for (const auto vc : vcs) {
      while (sw.Backlog(vc) < 64) {
        sw.Enqueue(vc, now);
      }
    }
    now = now + SimDuration::Micros(100);
    sw.AdvanceTo(now);
  }
  const double throughput =
      static_cast<double>(sw.total_cells_sent()) /
      (static_cast<double>(sw.slots_elapsed()) * kPorts);
  if (rounds == 1) {
    EXPECT_NEAR(throughput, 0.63, 0.05);
  } else if (rounds == 2) {
    EXPECT_GT(throughput, 0.75);
  } else {
    EXPECT_GT(throughput, 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(Rounds, MatchingRounds, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace lottery
