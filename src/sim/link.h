// Lottery-scheduled network link (Sections 6.3 and 7).
//
// Models an ATM-style switch output port: virtual circuits buffer
// fixed-size cells; each cell slot, the port holds a lottery among
// backlogged circuits weighted by their ticket allocations to decide which
// buffered cell is forwarded next. This mirrors the paper's observation
// that "lottery scheduling could be used to provide different levels of
// service to virtual circuits competing for congested channels" and the
// AN2 statistical-matching context it cites.

#ifndef SRC_SIM_LINK_H_
#define SRC_SIM_LINK_H_

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "src/obs/streaming.h"
#include "src/util/fastrand.h"
#include "src/util/sim_time.h"

namespace lottery {

class LinkScheduler {
 public:
  using CircuitId = uint32_t;

  struct Options {
    // Time to transmit one cell on the output link.
    SimDuration cell_time = SimDuration::Micros(3);
    // Per-circuit buffer capacity in cells; arrivals beyond it are dropped.
    size_t buffer_cells = 256;
  };

  LinkScheduler(Options options, FastRand* rng);

  void RegisterCircuit(CircuitId circuit, uint64_t tickets);
  void SetTickets(CircuitId circuit, uint64_t tickets);

  // Enqueues one cell on `circuit` at `when`; returns false if dropped.
  bool Enqueue(CircuitId circuit, SimTime when);

  // Transmits cells (one per cell_time when backlogged) until `deadline`.
  void AdvanceTo(SimTime deadline);

  SimTime now() const { return now_; }

  uint64_t CellsSent(CircuitId circuit) const;
  uint64_t CellsDropped(CircuitId circuit) const;
  size_t Backlog(CircuitId circuit) const;
  // Per-cell queueing delay statistics.
  const obs::StreamingStats& Delay(CircuitId circuit) const;

 private:
  struct CircuitState {
    uint64_t tickets = 1;
    std::deque<SimTime> cells;  // arrival times
    uint64_t sent = 0;
    uint64_t dropped = 0;
    obs::StreamingStats delay;
  };

  CircuitState& StateOf(CircuitId circuit);
  const CircuitState& StateOf(CircuitId circuit) const;
  std::optional<CircuitId> PickCircuit();

  Options options_;
  FastRand* rng_;  // lotlint: stream(device)
  std::map<CircuitId, CircuitState> circuits_;
  SimTime now_;
};

}  // namespace lottery

#endif  // SRC_SIM_LINK_H_
