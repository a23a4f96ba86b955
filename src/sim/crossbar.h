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
// output, exactly like the single-link LinkScheduler.

#ifndef SRC_SIM_CROSSBAR_H_
#define SRC_SIM_CROSSBAR_H_

#include <cstdint>
#include <deque>
#include <map>
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

  // Advances the switch, running one matching per cell slot.
  void AdvanceTo(SimTime deadline);

  SimTime now() const { return now_; }
  int num_ports() const { return options_.num_ports; }
  SimDuration cell_time() const { return options_.cell_time; }

  uint64_t CellsSent(CircuitId circuit) const;
  uint64_t CellsDropped(CircuitId circuit) const;
  size_t Backlog(CircuitId circuit) const;
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
  uint64_t total_sent_ = 0;
  uint64_t slots_ = 0;
};

}  // namespace lottery

#endif  // SRC_SIM_CROSSBAR_H_
