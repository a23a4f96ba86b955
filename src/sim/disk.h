// Lottery-scheduled disk bandwidth (Section 6's generalization; the paper's
// footnote 7 suggests "a disk-based database could use lotteries to
// schedule disk bandwidth").
//
// A single device serves one request at a time. Whenever the device becomes
// free and several clients have queued requests, a lottery over the ticket
// holdings of *backlogged* clients picks whose request is served next
// (FIFO within a client). Service time is seek overhead plus size over
// bandwidth. The simulation is self-contained (its own virtual clock) so it
// can also run inside kernel-driven experiments via Submit/AdvanceTo.

#ifndef SRC_SIM_DISK_H_
#define SRC_SIM_DISK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "src/obs/streaming.h"
#include "src/util/fastrand.h"
#include "src/util/sim_time.h"

namespace lottery {

class FaultInjector;
namespace etrace {
class TraceBuffer;
}

class DiskScheduler {
 public:
  using ClientId = uint32_t;

  struct Options {
    int64_t bytes_per_second = 10 * 1000 * 1000;
    SimDuration seek_overhead = SimDuration::Millis(5);
  };

  DiskScheduler(Options options, FastRand* rng);

  void RegisterClient(ClientId client, uint64_t tickets);
  void SetTickets(ClientId client, uint64_t tickets);

  // Arms disk-timeout injection (kDiskTimeout opportunities fire at each
  // would-be completion). nullptr disables. The injector must outlive the
  // disk scheduler.
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }
  // Completions that timed out and were re-queued for retry.
  uint64_t timeouts() const { return timeouts_; }

  // Records kCatDisk submit/complete events into `trace` (nullptr
  // disables). The buffer must outlive the disk scheduler.
  void SetTrace(etrace::TraceBuffer* trace);

  using Completion = std::function<void(SimTime)>;

  // Enqueues a request of `bytes` for `client`, submitted at `when`
  // (>= current clock). `on_complete`, if given, runs during AdvanceTo at
  // the request's completion time — the hook kernel threads use to block
  // on I/O and be woken by the device.
  void Submit(ClientId client, int64_t bytes, SimTime when,
              Completion on_complete = {});

  // Advances the device clock, completing requests until `deadline`.
  // A request may start in one AdvanceTo window and complete in a later
  // one (it stays "in flight" across calls).
  void AdvanceTo(SimTime deadline);

  SimTime now() const { return now_; }
  // True while a request is being serviced (possibly across AdvanceTo
  // windows).
  bool busy() const { return in_flight_.active; }
  bool idle() const;

  int64_t BytesServed(ClientId client) const;
  uint64_t RequestsServed(ClientId client) const;
  // Queueing delay (submit -> service start) statistics per client.
  const obs::StreamingStats& QueueDelay(ClientId client) const;
  size_t QueueDepth(ClientId client) const;

 private:
  struct Request {
    int64_t bytes;
    SimTime submitted;
    Completion on_complete;
    // Injected-timeout retries already spent on this request.
    uint32_t attempts = 0;
  };
  struct ClientState {
    uint64_t tickets = 1;
    std::deque<Request> queue;
    int64_t bytes_served = 0;
    uint64_t requests_served = 0;
    obs::StreamingStats queue_delay;
  };

  ClientState& StateOf(ClientId client);
  const ClientState& StateOf(ClientId client) const;
  // Picks the next backlogged client by lottery; nullopt if all idle.
  std::optional<ClientId> PickClient();
  SimDuration ServiceTime(const Request& request) const;

  struct InFlight {
    bool active = false;
    ClientId client = 0;
    Request request;
    SimTime done;
  };

  Options options_;
  FastRand* rng_;  // lotlint: stream(device)
  FaultInjector* faults_ = nullptr;
  etrace::TraceBuffer* trace_ = nullptr;
  uint32_t trace_name_ = 0;  // interned "disk"
  uint64_t timeouts_ = 0;
  std::map<ClientId, ClientState> clients_;
  SimTime now_;
  InFlight in_flight_;
};

}  // namespace lottery

#endif  // SRC_SIM_DISK_H_
