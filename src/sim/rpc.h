// Synchronous RPC ports with ticket transfers (Section 4.6).
//
// Models the paper's modified mach_msg path: a client performing a
// synchronous call creates a transfer ticket denominated in its own thread
// currency. If a server thread is already waiting to receive, the ticket
// immediately funds that server thread's currency and the server wakes.
// If not, the ticket funds the *port currency*, which backs every
// registered server thread — the paper's own refinement: "it would be
// preferable to instead fund all threads capable of receiving the message.
// This would accelerate all server threads, decreasing the delay until one
// becomes available to service the waiting message." (Without this, a
// runnable-but-unfunded worker can never reach its receive and an entirely
// transfer-funded server deadlocks.) When a worker dequeues the message it
// retargets the ticket to its own currency; the reply destroys the ticket
// and wakes the client. Because the blocked client's own tickets are
// deactivated, the transfer carries the client's entire funding.
//
// Under non-lottery schedulers the same port works without transfers.

#ifndef SRC_SIM_RPC_H_
#define SRC_SIM_RPC_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "src/core/transfer.h"
#include "src/obs/registry.h"
#include "src/sim/kernel.h"

namespace lottery {

struct RpcMessage {
  ThreadId client = kInvalidThreadId;
  int64_t payload = 0;
  SimTime sent_at;
  // Trace span id tying send → receive → reply into one causal flow
  // (etrace kCatRpc); 0 when tracing was off at send time.
  uint64_t span = 0;
  // Lottery mode only: the client's funding, parked or funding a server.
  std::unique_ptr<TicketTransfer> transfer;
  // Injected duplicate delivery: carries no transfer, and its reply is
  // discarded (the client is only woken by the original's reply).
  bool ghost = false;
};

// Observes thread exits so a dying server's port-funded ticket is withdrawn
// before its thread currency is destroyed, and so dead receive-waiters drop
// out of the queue.
class RpcPort : public ThreadExitObserver {
 public:
  RpcPort(Kernel* kernel, const std::string& name);
  ~RpcPort();
  RpcPort(const RpcPort&) = delete;
  RpcPort& operator=(const RpcPort&) = delete;

  // Declares `tid` a server thread of this port: its thread currency is
  // backed by a ticket issued in the port currency, so parked requests
  // fund it until a worker picks them up. No-op under non-lottery
  // schedulers; idempotent.
  void RegisterServer(ThreadId tid);

  // Client side: sends a synchronous request and arranges funding. The
  // calling body must ctx.Block() afterwards; it is woken by the reply.
  void Call(RunContext& ctx, int64_t payload);

  // Server side: attempts to dequeue a request. On success the message's
  // transfer is retargeted to this server thread's currency and `out`
  // receives the message. On failure the server is registered as waiting
  // and must ctx.Block(); it is woken when a request arrives (then it
  // should call TryReceive again).
  bool TryReceive(RunContext& ctx, RpcMessage* out);

  // Server side: completes a request — destroys the transfer and wakes the
  // client at ctx.now().
  void Reply(RunContext& ctx, RpcMessage message);

  size_t pending_requests() const { return pending_.size(); }
  size_t waiting_servers() const { return waiting_servers_.size(); }
  const std::string& name() const { return name_; }
  uint64_t total_calls() const { return total_calls_; }

  // Fault-injection outcomes (zero without an armed injector).
  uint64_t dropped_calls() const { return dropped_calls_; }
  uint64_t duplicated_calls() const { return duplicated_calls_; }
  uint64_t reordered_calls() const { return reordered_calls_; }
  uint64_t dead_client_replies() const { return dead_client_replies_; }

  // ThreadExitObserver: withdraws a dead server's funding ticket and its
  // receive slot. Parked calls from dead clients stay queued — Reply
  // tolerates them, and destroying their transfer reclaims the client's
  // retired currency.
  void OnThreadExit(ThreadId tid, SimTime when) override;

 private:
  Kernel* kernel_;
  std::string name_;
  std::deque<RpcMessage> pending_;
  std::deque<ThreadId> waiting_servers_;
  uint64_t total_calls_ = 0;
  uint64_t dropped_calls_ = 0;
  uint64_t duplicated_calls_ = 0;
  uint64_t reordered_calls_ = 0;
  uint64_t dead_client_replies_ = 0;
  // Lottery mode: the currency parked requests fund, and the per-server
  // tickets issued in it.
  Currency* currency_ = nullptr;
  std::map<ThreadId, Ticket*> server_tickets_;
  // Interned port name for trace events (0 when tracing is off).
  uint32_t trace_name_ = 0;

  // Obs hooks (from the kernel's registry).
  obs::Counter* m_calls_;
  obs::LatencyHistogram* m_latency_us_;
};

}  // namespace lottery

#endif  // SRC_SIM_RPC_H_
