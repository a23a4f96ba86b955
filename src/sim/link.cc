#include "src/sim/link.h"

#include <algorithm>
#include <stdexcept>

#include "src/core/weighted_draw.h"

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
  // Lottery over circuits with a cell buffered by `now_`; all-zero tickets
  // fall back to the first such circuit.
  const auto ready = [this](const CircuitState& state) {
    return !state.cells.empty() && state.cells.front() <= now_;
  };
  const auto first =
      std::find_if(circuits_.begin(), circuits_.end(),
                   [&](const auto& entry) { return ready(entry.second); });
  if (first == circuits_.end()) {
    return std::nullopt;
  }
  const auto it = DrawWeighted(*rng_, first, circuits_.end(),
                               [&](const auto& entry) {
                                 return ready(entry.second)
                                            ? entry.second.tickets
                                            : uint64_t{0};
                               });
  return it != circuits_.end() ? it->first : first->first;
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
