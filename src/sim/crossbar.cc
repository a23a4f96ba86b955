#include "src/sim/crossbar.h"

#include <algorithm>
#include <stdexcept>

#include "src/core/weighted_draw.h"

namespace lottery {

CrossbarSwitch::CrossbarSwitch(Options options, FastRand* rng)
    : options_(options), rng_(rng), now_(SimTime::Zero()) {
  if (options.num_ports < 1) {
    throw std::invalid_argument("CrossbarSwitch: need at least one port");
  }
  if (options.cell_time.nanos() <= 0) {
    throw std::invalid_argument("CrossbarSwitch: cell_time must be positive");
  }
  if (options.matching_rounds < 1) {
    throw std::invalid_argument("CrossbarSwitch: need >= 1 matching round");
  }
}

CrossbarSwitch::CircuitId CrossbarSwitch::AddCircuit(int input, int output,
                                                     uint64_t tickets) {
  if (input < 0 || input >= options_.num_ports || output < 0 ||
      output >= options_.num_ports) {
    throw std::invalid_argument("AddCircuit: port out of range");
  }
  Circuit circuit;
  circuit.input = input;
  circuit.output = output;
  circuit.tickets = tickets;
  circuits_.push_back(std::move(circuit));
  return static_cast<CircuitId>(circuits_.size() - 1);
}

void CrossbarSwitch::SetTickets(CircuitId circuit, uint64_t tickets) {
  circuits_.at(circuit).tickets = tickets;
}

bool CrossbarSwitch::Enqueue(CircuitId circuit, SimTime when) {
  Circuit& c = circuits_.at(circuit);
  if (c.cells.size() >= options_.buffer_cells) {
    ++c.dropped;
    return false;
  }
  c.cells.push_back(when);
  return true;
}

void CrossbarSwitch::RunSlot() {
  const int ports = options_.num_ports;
  std::vector<bool> input_matched(static_cast<size_t>(ports), false);
  std::vector<bool> output_matched(static_cast<size_t>(ports), false);
  std::vector<size_t> granted;  // circuit indices transmitting this slot

  for (int round = 0; round < options_.matching_rounds; ++round) {
    // Step 1: each unmatched output draws a proposer among backlogged
    // circuits from unmatched inputs.
    // proposals[input] collects the circuits that won an output lottery.
    std::map<int, std::vector<size_t>> proposals;
    for (int out = 0; out < ports; ++out) {
      if (output_matched[static_cast<size_t>(out)]) {
        continue;
      }
      const auto eligible = [&](const Circuit& c) {
        return c.output == out && !c.cells.empty() &&
               c.cells.front() <= now_ &&
               !input_matched[static_cast<size_t>(c.input)];
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
        it = first;  // all-zero tickets: the first eligible circuit
      }
      proposals[it->input].push_back(
          static_cast<size_t>(it - circuits_.begin()));
    }

    if (proposals.empty()) {
      break;  // no progress possible
    }

    // Step 2: each input grants one proposing circuit by lottery.
    for (auto& [input, candidates] : proposals) {
      size_t winner = candidates.front();
      if (candidates.size() > 1) {
        const auto it =
            DrawWeighted(*rng_, candidates.begin(), candidates.end(),
                         [this](size_t i) { return circuits_[i].tickets; });
        if (it != candidates.end()) {
          winner = *it;
        }
      }
      input_matched[static_cast<size_t>(input)] = true;
      output_matched[static_cast<size_t>(circuits_[winner].output)] = true;
      granted.push_back(winner);
    }
  }

  // Transmit the matched cells.
  const SimTime slot_end = now_ + options_.cell_time;
  for (const size_t i : granted) {
    Circuit& c = circuits_[i];
    const SimTime arrival = c.cells.front();
    c.cells.pop_front();
    c.delay.Add((slot_end - arrival).ToSecondsF());
    ++c.sent;
    ++total_sent_;
  }
}

void CrossbarSwitch::AdvanceTo(SimTime deadline) {
  while (now_ + options_.cell_time <= deadline) {
    bool backlog = false;
    for (const Circuit& c : circuits_) {
      if (!c.cells.empty()) {
        backlog = true;
        break;
      }
    }
    if (!backlog) {
      // Idle fast path: an empty slot matches nothing and draws nothing, so
      // batch-advance the clock instead of simulating each one. Keeps
      // sparse users (the SMP balancer advances only at migrations) O(cells)
      // instead of O(elapsed / cell_time).
      const int64_t cell = options_.cell_time.nanos();
      const int64_t whole = (deadline - now_).nanos() / cell;
      now_ += SimDuration::Nanos(whole * cell);
      slots_ += static_cast<uint64_t>(whole);
      break;
    }
    RunSlot();
    now_ += options_.cell_time;
    ++slots_;
  }
  if (now_ < deadline) {
    now_ = deadline;  // partial final slot: nothing transmits
  }
}

uint64_t CrossbarSwitch::CellsSent(CircuitId circuit) const {
  return circuits_.at(circuit).sent;
}

uint64_t CrossbarSwitch::CellsDropped(CircuitId circuit) const {
  return circuits_.at(circuit).dropped;
}

size_t CrossbarSwitch::Backlog(CircuitId circuit) const {
  return circuits_.at(circuit).cells.size();
}

const obs::StreamingStats& CrossbarSwitch::Delay(CircuitId circuit) const {
  return circuits_.at(circuit).delay;
}

}  // namespace lottery
