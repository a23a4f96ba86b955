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
  const auto ports = static_cast<size_t>(options.num_ports);
  by_output_.resize(ports);
  output_queued_.assign(ports, 0);
  input_matched_.assign(ports, false);
  output_matched_.assign(ports, false);
  proposals_.resize(ports);
  for (std::vector<size_t>& candidates : proposals_) {
    candidates.reserve(ports);  // at most one proposal per output
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
  const auto id = static_cast<CircuitId>(circuits_.size() - 1);
  by_output_[static_cast<size_t>(output)].push_back(id);
  return id;
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
  ++queued_;
  ++output_queued_[static_cast<size_t>(c.output)];
  return true;
}

void CrossbarSwitch::RunSlot() {
  const int ports = options_.num_ports;
  std::fill(input_matched_.begin(), input_matched_.end(), false);
  std::fill(output_matched_.begin(), output_matched_.end(), false);
  const SimTime slot_end = now_ + options_.cell_time;

  for (int round = 0; round < options_.matching_rounds; ++round) {
    // Step 1: each unmatched output with cells queued draws a proposer
    // among its backlogged circuits from unmatched inputs.
    bool proposed = false;
    for (int out = 0; out < ports; ++out) {
      const auto o = static_cast<size_t>(out);
      if (output_matched_[o] || output_queued_[o] == 0) {
        continue;
      }
      const auto eligible = [&](CircuitId id) {
        const Circuit& c = circuits_[id];
        return !c.cells.empty() && c.cells.front() <= now_ &&
               !input_matched_[static_cast<size_t>(c.input)];
      };
      const std::vector<CircuitId>& mine = by_output_[o];
      const auto first = std::find_if(mine.begin(), mine.end(), eligible);
      if (first == mine.end()) {
        continue;
      }
      auto it = DrawWeighted(*rng_, first, mine.end(), [&](CircuitId id) {
        return eligible(id) ? circuits_[id].tickets : uint64_t{0};
      });
      if (it == mine.end()) {
        it = first;  // all-zero tickets: the first eligible circuit
      }
      proposals_[static_cast<size_t>(circuits_[*it].input)].push_back(*it);
      proposed = true;
    }

    if (!proposed) {
      break;  // no progress possible
    }

    // Step 2: each input, in port order, grants one proposing circuit by
    // lottery, which sends its head cell. A granted circuit's input and
    // output are both matched, so no later round looks at it again.
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
      --output_queued_[static_cast<size_t>(c.output)];
      ++c.sent;
      ++total_sent_;
    }
  }
}

void CrossbarSwitch::AdvanceTo(SimTime deadline) {
  while (queued_ > 0 && now_ + options_.cell_time <= deadline) {
    RunSlot();
    now_ += options_.cell_time;
    ++slots_;
    idle_ns_ = 0;  // the grid restarts where this busy stretch ends
  }
  if (queued_ == 0 && now_ < deadline) {
    // Idle: an empty slot matches nothing and draws nothing, so count the
    // whole slots up to the deadline and jump there instead of simulating
    // each one. Keeps sparse users (the SMP balancer advances only at
    // migrations) O(cells) instead of O(elapsed / cell_time). The partial
    // slot carries into the next call, so an idle span counts the same
    // slots however the caller splits it.
    const int64_t idle = idle_ns_ + (deadline - now_).nanos();
    slots_ += static_cast<uint64_t>(idle / options_.cell_time.nanos());
    idle_ns_ = idle % options_.cell_time.nanos();
    now_ = deadline;
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
