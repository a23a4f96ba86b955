// Tests for the lottery-matched crossbar switch, and for its one-port form,
// a single congested link; and a differential test of its indexed matching
// against an all-circuit scan.

#include "src/sim/crossbar.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/weighted_draw.h"

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

// The switch before its outputs indexed their circuits: each output lottery
// scans every circuit of the switch, in id order, and circuits of other
// outputs weigh zero. It is the reference the indexed matching must follow
// draw for draw, so its RunSlot and AdvanceTo are kept as they were.
class ReferenceCrossbar {
 public:
  using CircuitId = CrossbarSwitch::CircuitId;

  ReferenceCrossbar(CrossbarSwitch::Options options, FastRand* rng)
      : options_(options), rng_(rng) {
    const auto ports = static_cast<size_t>(options.num_ports);
    input_matched_.assign(ports, false);
    output_matched_.assign(ports, false);
    proposals_.resize(ports);
  }

  CircuitId AddCircuit(int input, int output, uint64_t tickets) {
    circuits_.push_back(Circuit{input, output, tickets, {}, 0, 0, {}});
    return static_cast<CircuitId>(circuits_.size() - 1);
  }
  void SetTickets(CircuitId circuit, uint64_t tickets) {
    circuits_.at(circuit).tickets = tickets;
  }
  bool Enqueue(CircuitId circuit, SimTime when) {
    Circuit& c = circuits_.at(circuit);
    if (c.cells.size() >= options_.buffer_cells) {
      ++c.dropped;
      return false;
    }
    c.cells.push_back(when);
    ++queued_;
    return true;
  }
  void AdvanceTo(SimTime deadline) {
    while (queued_ > 0 && now_ + options_.cell_time <= deadline) {
      RunSlot();
      now_ += options_.cell_time;
      ++slots_;
    }
    if (queued_ == 0 && now_ < deadline) {
      slots_ += static_cast<uint64_t>((deadline - now_).nanos() /
                                      options_.cell_time.nanos());
      now_ = deadline;
    }
  }

  SimTime now() const { return now_; }
  uint64_t CellsSent(CircuitId circuit) const {
    return circuits_.at(circuit).sent;
  }
  uint64_t CellsDropped(CircuitId circuit) const {
    return circuits_.at(circuit).dropped;
  }
  size_t Backlog(CircuitId circuit) const {
    return circuits_.at(circuit).cells.size();
  }
  const obs::StreamingStats& Delay(CircuitId circuit) const {
    return circuits_.at(circuit).delay;
  }
  uint64_t total_cells_sent() const { return total_sent_; }
  uint64_t slots_elapsed() const { return slots_; }

 private:
  struct Circuit {
    int input;
    int output;
    uint64_t tickets;
    std::deque<SimTime> cells;
    uint64_t sent;
    uint64_t dropped;
    obs::StreamingStats delay;
  };

  void RunSlot() {
    const int ports = options_.num_ports;
    std::fill(input_matched_.begin(), input_matched_.end(), false);
    std::fill(output_matched_.begin(), output_matched_.end(), false);
    const SimTime slot_end = now_ + options_.cell_time;
    for (int round = 0; round < options_.matching_rounds; ++round) {
      bool proposed = false;
      for (int out = 0; out < ports; ++out) {
        if (output_matched_[static_cast<size_t>(out)]) {
          continue;
        }
        const auto eligible = [&](const Circuit& c) {
          return c.output == out && !c.cells.empty() &&
                 c.cells.front() <= now_ &&
                 !input_matched_[static_cast<size_t>(c.input)];
        };
        const auto first =
            std::find_if(circuits_.begin(), circuits_.end(), eligible);
        if (first == circuits_.end()) {
          continue;
        }
        auto it = DrawWeighted(*rng_, first, circuits_.end(),
                               [&](const Circuit& c) {
                                 return eligible(c) ? c.tickets : uint64_t{0};
                               });
        if (it == circuits_.end()) {
          it = first;
        }
        proposals_[static_cast<size_t>(it->input)].push_back(
            static_cast<size_t>(it - circuits_.begin()));
        proposed = true;
      }
      if (!proposed) {
        break;
      }
      for (int input = 0; input < ports; ++input) {
        std::vector<size_t>& candidates =
            proposals_[static_cast<size_t>(input)];
        if (candidates.empty()) {
          continue;
        }
        size_t winner = candidates.front();
        if (candidates.size() > 1) {
          const auto it =
              DrawWeighted(*rng_, candidates.begin(), candidates.end(),
                           [this](size_t i) { return circuits_[i].tickets; });
          if (it != candidates.end()) {
            winner = *it;
          }
        }
        candidates.clear();
        Circuit& c = circuits_[winner];
        input_matched_[static_cast<size_t>(input)] = true;
        output_matched_[static_cast<size_t>(c.output)] = true;
        c.delay.Add((slot_end - c.cells.front()).ToSecondsF());
        c.cells.pop_front();
        --queued_;
        ++c.sent;
        ++total_sent_;
      }
    }
  }

  CrossbarSwitch::Options options_;
  FastRand* rng_;
  std::vector<Circuit> circuits_;
  SimTime now_ = SimTime::Zero();
  size_t queued_ = 0;
  uint64_t total_sent_ = 0;
  uint64_t slots_ = 0;
  std::vector<bool> input_matched_;
  std::vector<bool> output_matched_;
  std::vector<std::vector<size_t>> proposals_;
};

// Everything the public API shows of the two switches, and where their
// generators stand.
::testing::AssertionResult SameState(const CrossbarSwitch& sw,
                                     const ReferenceCrossbar& ref,
                                     size_t circuits, const FastRand& sw_rng,
                                     const FastRand& ref_rng) {
  const auto differ = [](const std::string& what) {
    return ::testing::AssertionFailure() << what << " differs";
  };
  if (sw_rng.state() != ref_rng.state()) {
    return differ("generator state");
  }
  if (sw.now() != ref.now() || sw.slots_elapsed() != ref.slots_elapsed() ||
      sw.total_cells_sent() != ref.total_cells_sent()) {
    return differ("clock or totals");
  }
  for (size_t i = 0; i < circuits; ++i) {
    const auto vc = static_cast<CrossbarSwitch::CircuitId>(i);
    const obs::StreamingStats& a = sw.Delay(vc);
    const obs::StreamingStats& b = ref.Delay(vc);
    if (sw.CellsSent(vc) != ref.CellsSent(vc) ||
        sw.CellsDropped(vc) != ref.CellsDropped(vc) ||
        sw.Backlog(vc) != ref.Backlog(vc) || a.count() != b.count() ||
        a.mean() != b.mean() || a.min() != b.min() || a.max() != b.max() ||
        a.variance() != b.variance()) {
      return differ("circuit " + std::to_string(i));
    }
  }
  return ::testing::AssertionSuccess();
}

// Seeded random traffic through both switches: zero-ticket circuits and
// several circuits per (input, output) pair, circuits added and repriced
// while cells flow, cells stamped after the current slot's start, bursts
// that overflow the buffers, and AdvanceTo steps shorter and longer than a
// cell.
class IndexedMatching
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IndexedMatching, FollowsTheAllCircuitScanDrawForDraw) {
  const auto [ports, rounds] = GetParam();
  CrossbarSwitch::Options o = Opts(ports, rounds);
  o.buffer_cells = 6;
  const int64_t cell_ns = o.cell_time.nanos();
  const auto seed = static_cast<uint32_t>(7000 + 10 * ports + rounds);
  FastRand sw_rng(seed);
  FastRand ref_rng(seed);
  FastRand traffic(seed + 1);
  CrossbarSwitch sw(o, &sw_rng);
  ReferenceCrossbar ref(o, &ref_rng);
  const auto port = [&] {
    return static_cast<int>(traffic.NextBelow(static_cast<uint32_t>(ports)));
  };
  const auto tickets = [&] {
    constexpr uint64_t kTickets[] = {0, 0, 1, 3, 10, 100};
    return kTickets[traffic.NextBelow(6)];
  };
  std::vector<std::pair<int, int>> pairs;  // (input, output) per circuit
  const auto add_circuit = [&] {
    std::pair<int, int> pair{port(), port()};
    if (!pairs.empty() && traffic.NextBelow(3) == 0) {
      pair = pairs[traffic.NextBelow(static_cast<uint32_t>(pairs.size()))];
    }
    const uint64_t t = tickets();
    const auto id = sw.AddCircuit(pair.first, pair.second, t);
    ASSERT_EQ(ref.AddCircuit(pair.first, pair.second, t), id);
    pairs.push_back(pair);
  };
  const auto circuit = [&] {
    return static_cast<CrossbarSwitch::CircuitId>(
        traffic.NextBelow(static_cast<uint32_t>(pairs.size())));
  };
  for (int i = 0; i < ports + 1; ++i) {
    add_circuit();
  }
  SimTime deadline = SimTime::Zero();
  uint64_t dropped = 0;
  for (int step = 0; step < 400; ++step) {
    if (traffic.NextBelow(8) == 0) {
      add_circuit();
    }
    if (traffic.NextBelow(6) == 0) {
      const auto vc = circuit();
      const uint64_t t = tickets();
      sw.SetTickets(vc, t);
      ref.SetTickets(vc, t);
    }
    const uint32_t burst =
        traffic.NextBelow(static_cast<uint32_t>(2 * ports + 3));
    for (uint32_t i = 0; i < burst; ++i) {
      const auto vc = circuit();
      const SimTime when =
          sw.now() + SimDuration::Nanos(static_cast<int64_t>(
                         traffic.NextBelow(static_cast<uint32_t>(3 * cell_ns))));
      const bool queued = sw.Enqueue(vc, when);
      ASSERT_EQ(ref.Enqueue(vc, when), queued) << "step " << step;
      dropped += queued ? 0 : 1;
    }
    deadline = deadline + SimDuration::Nanos(static_cast<int64_t>(
                              1 + traffic.NextBelow(
                                      static_cast<uint32_t>(3 * cell_ns))));
    sw.AdvanceTo(deadline);
    ref.AdvanceTo(deadline);
    ASSERT_TRUE(SameState(sw, ref, pairs.size(), sw_rng, ref_rng))
        << "step " << step;
  }
  EXPECT_GT(sw.total_cells_sent(), 400u);
  EXPECT_GT(dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PortsAndRounds, IndexedMatching,
    ::testing::Combine(::testing::Values(1, 2, 5, 16),
                       ::testing::Values(1, 2, 4)));

}  // namespace
}  // namespace lottery
