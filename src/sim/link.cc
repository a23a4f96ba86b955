#include "src/sim/link.h"

#include <stdexcept>

namespace lottery {

LinkScheduler::LinkScheduler(Options options, FastRand* rng)
    : options_(options), rng_(rng), now_(SimTime::Zero()) {
  if (options.cell_time.nanos() <= 0) {
    throw std::invalid_argument("LinkScheduler: cell_time must be positive");
  }
}

void LinkScheduler::RegisterCircuit(CircuitId circuit, uint64_t tickets) {
  if (!circuits_.emplace(circuit, CircuitState{}).second) {
    throw std::invalid_argument("LinkScheduler: duplicate circuit");
  }
  circuits_[circuit].tickets = tickets;
}

void LinkScheduler::SetTickets(CircuitId circuit, uint64_t tickets) {
  StateOf(circuit).tickets = tickets;
}

LinkScheduler::CircuitState& LinkScheduler::StateOf(CircuitId circuit) {
  const auto it = circuits_.find(circuit);
  if (it == circuits_.end()) {
    throw std::invalid_argument("LinkScheduler: unknown circuit");
  }
  return it->second;
}

const LinkScheduler::CircuitState& LinkScheduler::StateOf(
    CircuitId circuit) const {
  return const_cast<LinkScheduler*>(this)->StateOf(circuit);
}

bool LinkScheduler::Enqueue(CircuitId circuit, SimTime when) {
  CircuitState& state = StateOf(circuit);
  if (state.cells.size() >= options_.buffer_cells) {
    ++state.dropped;
    return false;
  }
  state.cells.push_back(when);
  return true;
}

std::optional<LinkScheduler::CircuitId> LinkScheduler::PickCircuit() {
  std::vector<CircuitId> ids;
  std::vector<uint64_t> weights;
  uint64_t total = 0;
  for (const auto& [id, state] : circuits_) {
    if (!state.cells.empty() && state.cells.front() <= now_) {
      ids.push_back(id);
      weights.push_back(state.tickets);
      total += state.tickets;
    }
  }
  if (ids.empty()) {
    return std::nullopt;
  }
  if (total == 0) {
    return ids.front();
  }
  uint64_t value = rng_->NextBelow64(total);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (value < weights[i]) {
      return ids[i];
    }
    value -= weights[i];
  }
  throw std::logic_error("LinkScheduler::PickCircuit: ran past weights");
}

void LinkScheduler::AdvanceTo(SimTime deadline) {
  while (now_ < deadline) {
    const auto picked = PickCircuit();
    if (!picked.has_value()) {
      // Idle: jump to the next buffered arrival (cells enqueued "in the
      // future" relative to the port clock), or the deadline.
      SimTime next = deadline;
      for (const auto& [id, state] : circuits_) {
        if (!state.cells.empty() && state.cells.front() > now_ &&
            state.cells.front() < next) {
          next = state.cells.front();
        }
      }
      now_ = next;
      continue;
    }
    if (now_ + options_.cell_time > deadline) {
      now_ = deadline;
      break;
    }
    CircuitState& state = StateOf(*picked);
    const SimTime arrival = state.cells.front();
    state.cells.pop_front();
    now_ += options_.cell_time;
    state.delay.Add((now_ - arrival).ToSecondsF());
    ++state.sent;
  }
}

uint64_t LinkScheduler::CellsSent(CircuitId circuit) const {
  return StateOf(circuit).sent;
}

uint64_t LinkScheduler::CellsDropped(CircuitId circuit) const {
  return StateOf(circuit).dropped;
}

size_t LinkScheduler::Backlog(CircuitId circuit) const {
  return StateOf(circuit).cells.size();
}

const obs::StreamingStats& LinkScheduler::Delay(CircuitId circuit) const {
  return StateOf(circuit).delay;
}

}  // namespace lottery
