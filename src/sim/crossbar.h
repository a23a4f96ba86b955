// Lottery-scheduled N x N crossbar switch (statistical matching).
//
// Section 7 points at the AN2 network's statistical matching — "exploits
// randomness to support frequent changes of bandwidth allocation" — as
// kindred work, and Section 6.3 proposes lotteries for "virtual circuits
// competing for congested channels". This module combines them: an
// input-queued crossbar where, each cell slot, a randomized matching is
// built between inputs and outputs, with every random choice made by a
// lottery over virtual-circuit tickets:
//
//   round:  1. every unmatched output holds a lottery among the backlogged
//              circuits (from unmatched inputs) destined to it;
//           2. an input proposed to by several outputs grants one of them
//              by a second lottery (weighted by the proposing circuits);
//           3. repeat with the still-unmatched ports (`matching_rounds`).
//
// One round reproduces the classic ~(1 - 1/e) saturation throughput of
// single-iteration randomized matching; a few rounds approach a maximal
// matching. Ticket allocations set each circuit's share of its contended
// output. With one port the switch is a single congested link: every
// circuit is AddCircuit(0, 0, tickets), and each slot is one lottery over
// the circuits with a cell buffered, in the order they were added.
//
// Cost: each output keeps its circuit ids in ascending order and a count
// of the cells queued on them, so step 1 skips an output with nothing
// queued and draws over that output's own circuits only. A round costs
// O(ports + circuits of the backlogged outputs), not O(ports x circuits):
// the SMP balancer's switch, with a circuit per CPU pair that has ever
// migrated, keeps most of them idle while one migration's cells drain.
//
// Clock: slots start on the grid now() + k * cell_time, and a cell that
// arrived by a slot's start may go in that slot. While any cell is queued
// the clock stays on the grid, so a slot that AdvanceTo's deadline splits
// runs whole in the next call: the cells sent and the draws made do not
// depend on how the caller steps the switch. An empty switch jumps to the
// deadline, and its grid restarts there.

#ifndef SRC_SIM_CROSSBAR_H_
#define SRC_SIM_CROSSBAR_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "src/obs/streaming.h"
#include "src/util/fastrand.h"
#include "src/util/sim_time.h"

namespace lottery {

class CrossbarSwitch {
 public:
  using CircuitId = uint32_t;

  struct Options {
    int num_ports = 4;
    SimDuration cell_time = SimDuration::Micros(3);
    size_t buffer_cells = 1024;  // per circuit
    int matching_rounds = 1;
  };

  CrossbarSwitch(Options options, FastRand* rng);

  // Declares a virtual circuit from `input` to `output` with `tickets`.
  CircuitId AddCircuit(int input, int output, uint64_t tickets);
  void SetTickets(CircuitId circuit, uint64_t tickets);

  // Enqueues one cell on `circuit` at `when`; false if its buffer is full.
  bool Enqueue(CircuitId circuit, SimTime when);

  // Runs every slot that ends by `deadline` (see "Clock" above).
  void AdvanceTo(SimTime deadline);

  // Start of the next slot; trails the last deadline by less than one
  // cell_time while cells are queued.
  SimTime now() const { return now_; }
  int num_ports() const { return options_.num_ports; }
  SimDuration cell_time() const { return options_.cell_time; }

  uint64_t CellsSent(CircuitId circuit) const;
  uint64_t CellsDropped(CircuitId circuit) const;
  size_t Backlog(CircuitId circuit) const;
  // Per-cell delay from arrival to the end of the slot that sent it.
  const obs::StreamingStats& Delay(CircuitId circuit) const;
  // Total cells forwarded across all circuits (for throughput measures).
  uint64_t total_cells_sent() const { return total_sent_; }
  // Cell slots elapsed since construction.
  uint64_t slots_elapsed() const { return slots_; }

 private:
  struct Circuit {
    int input;
    int output;
    uint64_t tickets;
    std::deque<SimTime> cells;
    uint64_t sent = 0;
    uint64_t dropped = 0;
    obs::StreamingStats delay;
  };

  // Runs one slot's matching and transmits the matched cells.
  void RunSlot();

  Options options_;
  FastRand* rng_;  // lotlint: stream(device)
  std::vector<Circuit> circuits_;
  SimTime now_;
  size_t queued_ = 0;  // cells buffered across all circuits
  uint64_t total_sent_ = 0;
  uint64_t slots_ = 0;
  // Per output: its circuits in ascending id order (the order every output
  // lottery walks), and the cells buffered on them.
  std::vector<std::vector<CircuitId>> by_output_;
  std::vector<size_t> output_queued_;
  // RunSlot's working state, sized once per port: which ports a slot has
  // matched, and per input the circuits that won an output lottery this
  // round, in output order.
  std::vector<bool> input_matched_;
  std::vector<bool> output_matched_;
  std::vector<std::vector<size_t>> proposals_;
};

}  // namespace lottery

#endif  // SRC_SIM_CROSSBAR_H_
