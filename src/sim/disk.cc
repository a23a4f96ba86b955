#include "src/sim/disk.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/core/weighted_draw.h"
#include "src/obs/etrace/trace_buffer.h"
#include "src/sim/fault.h"

namespace lottery {

DiskScheduler::DiskScheduler(Options options, FastRand* rng)
    : options_(options), rng_(rng), now_(SimTime::Zero()) {
  if (options.bytes_per_second <= 0) {
    throw std::invalid_argument("DiskScheduler: bandwidth must be positive");
  }
}

void DiskScheduler::RegisterClient(ClientId client, uint64_t tickets) {
  if (!clients_.emplace(client, ClientState{}).second) {
    throw std::invalid_argument("DiskScheduler: duplicate client");
  }
  clients_[client].tickets = tickets;
}

void DiskScheduler::SetTickets(ClientId client, uint64_t tickets) {
  StateOf(client).tickets = tickets;
}

void DiskScheduler::SetTrace(etrace::TraceBuffer* trace) {
  trace_ = trace;
  trace_name_ = trace != nullptr ? trace->Intern("disk") : 0;
}

DiskScheduler::ClientState& DiskScheduler::StateOf(ClientId client) {
  const auto it = clients_.find(client);
  if (it == clients_.end()) {
    throw std::invalid_argument("DiskScheduler: unknown client");
  }
  return it->second;
}

const DiskScheduler::ClientState& DiskScheduler::StateOf(
    ClientId client) const {
  return const_cast<DiskScheduler*>(this)->StateOf(client);
}

void DiskScheduler::Submit(ClientId client, int64_t bytes, SimTime when,
                           Completion on_complete) {
  if (bytes <= 0) {
    throw std::invalid_argument("DiskScheduler::Submit: bytes must be > 0");
  }
  if (when < now_) {
    when = now_;
  }
  if (etrace::On(trace_, etrace::kCatDisk)) {
    etrace::Event e;
    e.t_ns = when.nanos();
    e.v1 = static_cast<uint64_t>(bytes);
    e.a = client;
    e.name = trace_name_;
    e.type = static_cast<uint16_t>(etrace::EventType::kDiskSubmit);
    trace_->Append(e);
  }
  StateOf(client).queue.push_back(
      Request{bytes, when, std::move(on_complete)});
}

SimDuration DiskScheduler::ServiceTime(const Request& request) const {
  const int64_t transfer_ns =
      request.bytes * 1000000000 / options_.bytes_per_second;
  return options_.seek_overhead + SimDuration::Nanos(transfer_ns);
}

std::optional<DiskScheduler::ClientId> DiskScheduler::PickClient() {
  // Lottery over clients with a request submitted by `now_`; all-zero
  // tickets fall back to the first such client.
  const auto ready = [this](const ClientState& state) {
    return !state.queue.empty() && state.queue.front().submitted <= now_;
  };
  const auto first =
      std::find_if(clients_.begin(), clients_.end(),
                   [&](const auto& entry) { return ready(entry.second); });
  if (first == clients_.end()) {
    return std::nullopt;
  }
  const auto it = DrawWeighted(*rng_, first, clients_.end(),
                               [&](const auto& entry) {
                                 return ready(entry.second)
                                            ? entry.second.tickets
                                            : uint64_t{0};
                               });
  return it != clients_.end() ? it->first : first->first;
}

void DiskScheduler::AdvanceTo(SimTime deadline) {
  for (;;) {
    if (in_flight_.active) {
      if (in_flight_.done > deadline) {
        // Still transferring at the horizon; resume in a later call.
        now_ = deadline;
        return;
      }
      now_ = in_flight_.done;
      ClientState& state = StateOf(in_flight_.client);
      if (faults_ != nullptr &&
          faults_->active(FaultClass::kDiskTimeout) &&
          in_flight_.request.attempts <
              faults_->MaxRetriesOf(FaultClass::kDiskTimeout) &&
          faults_->Fire(FaultClass::kDiskTimeout, now_)) {
        // The transfer timed out: re-queue at the head (preserving the
        // client's FIFO order) with bounded exponential backoff. After
        // max_retries the request is forced through — no request starves.
        ++timeouts_;
        Request retry = std::move(in_flight_.request);
        const SimDuration base =
            faults_->DelayOf(FaultClass::kDiskTimeout);
        const uint32_t shift = retry.attempts < 6 ? retry.attempts : 6;
        retry.submitted = now_ + base * (int64_t{1} << shift);
        ++retry.attempts;
        state.queue.push_front(std::move(retry));
        in_flight_.active = false;
        continue;
      }
      state.bytes_served += in_flight_.request.bytes;
      ++state.requests_served;
      if (etrace::On(trace_, etrace::kCatDisk)) {
        etrace::Event e;
        e.t_ns = now_.nanos();
        e.v1 = static_cast<uint64_t>(in_flight_.request.bytes);
        e.v2 = static_cast<uint64_t>(
            (now_ - in_flight_.request.submitted).nanos());
        e.a = in_flight_.client;
        e.name = trace_name_;
        e.flags = in_flight_.request.attempts > 0 ? 1 : 0;
        e.type = static_cast<uint16_t>(etrace::EventType::kDiskComplete);
        trace_->Append(e);
      }
      if (in_flight_.request.on_complete) {
        in_flight_.request.on_complete(now_);
      }
      in_flight_.active = false;
    }
    if (now_ >= deadline) {
      return;
    }
    const auto picked = PickClient();
    if (!picked.has_value()) {
      // Jump to the next future submission, if any lands before deadline.
      SimTime next = deadline;
      for (const auto& [id, state] : clients_) {
        if (!state.queue.empty() && state.queue.front().submitted < next &&
            state.queue.front().submitted > now_) {
          next = state.queue.front().submitted;
        }
      }
      now_ = next;
      if (now_ >= deadline) {
        return;
      }
      continue;
    }
    ClientState& state = StateOf(*picked);
    in_flight_.active = true;
    in_flight_.client = *picked;
    in_flight_.request = std::move(state.queue.front());
    state.queue.pop_front();
    state.queue_delay.Add((now_ - in_flight_.request.submitted).ToSecondsF());
    in_flight_.done = now_ + ServiceTime(in_flight_.request);
  }
}

bool DiskScheduler::idle() const {
  if (in_flight_.active) {
    return false;
  }
  for (const auto& [id, state] : clients_) {
    if (!state.queue.empty()) {
      return false;
    }
  }
  return true;
}

int64_t DiskScheduler::BytesServed(ClientId client) const {
  return StateOf(client).bytes_served;
}

uint64_t DiskScheduler::RequestsServed(ClientId client) const {
  return StateOf(client).requests_served;
}

const obs::StreamingStats& DiskScheduler::QueueDelay(ClientId client) const {
  return StateOf(client).queue_delay;
}

size_t DiskScheduler::QueueDepth(ClientId client) const {
  return StateOf(client).queue.size();
}

}  // namespace lottery
