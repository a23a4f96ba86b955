#include "src/sim/rpc.h"

#include <stdexcept>
#include <utility>

#include "src/obs/etrace/trace_buffer.h"
#include "src/sim/fault.h"

namespace lottery {

namespace {

// Face value of each call's transfer and of each server's port ticket. Any
// positive constant gives the same shares: they are relative within each
// currency.
constexpr int64_t kTransferAmount = 1000;

}  // namespace

RpcPort::RpcPort(Kernel* kernel, const std::string& name)
    : kernel_(kernel),
      name_(name),
      m_calls_(kernel->metrics().counter("rpc.calls")),
      m_latency_us_(kernel->metrics().histogram("rpc.latency_us")) {
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    currency_ = ls->table().CreateCurrency("port:" + name);
  }
  if (kernel_->etrace() != nullptr) {
    trace_name_ = kernel_->etrace()->Intern("port:" + name);
  }
  kernel_->AddExitObserver(this);
}

RpcPort::~RpcPort() {
  kernel_->RemoveExitObserver(this);
  if (currency_ == nullptr) {
    pending_.clear();
    return;
  }
  CurrencyTable& table = kernel_->lottery()->table();
  // Destroy parked transfers (they back currency_), then the per-server
  // tickets issued in currency_, then the currency itself.
  pending_.clear();
  for (auto& [tid, ticket] : server_tickets_) {
    table.DestroyTicket(ticket);
  }
  server_tickets_.clear();
  table.DestroyCurrency(currency_);
}

void RpcPort::RegisterServer(ThreadId tid) {
  LotteryScheduler* ls = kernel_->lottery();
  if (ls == nullptr || server_tickets_.count(tid) > 0) {
    return;
  }
  Ticket* ticket = ls->table().CreateTicket(currency_, kTransferAmount);
  ls->table().Fund(ls->thread_currency(tid), ticket);
  server_tickets_[tid] = ticket;
}

void RpcPort::Call(RunContext& ctx, int64_t payload) {
  ++total_calls_;
  m_calls_->Inc();
  RpcMessage message;
  message.client = ctx.self();
  message.payload = payload;
  message.sent_at = ctx.now();

  etrace::TraceBuffer* trace = kernel_->etrace();
  if (etrace::On(trace, etrace::kCatRpc)) {
    // Span ids come off the trace buffer, not any simulation RNG, so the
    // schedule is identical with tracing off (span stays 0 then).
    message.span = trace->NextSpanId();
    etrace::Event e;
    e.t_ns = ctx.now().nanos();
    e.v1 = message.span;
    e.v2 = static_cast<uint64_t>(payload);
    e.a = ctx.self();
    e.name = trace_name_;
    e.type = static_cast<uint16_t>(etrace::EventType::kRpcSend);
    trace->Append(e);
  }

  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    message.transfer = std::make_unique<TicketTransfer>(
        &ls->table(), ls->thread_currency(ctx.self()), nullptr,
        kTransferAmount);
    ls->NoteTransfer();
  }

  FaultInjector* faults = kernel_->faults();
  if (faults != nullptr && faults->active(FaultClass::kRpcDrop) &&
      faults->Fire(FaultClass::kRpcDrop, ctx.now())) {
    // The message is lost in transit. Destroying the transfer rolls the
    // client's funding back (exactly once, by RAII); the blocked caller is
    // woken after a notice delay, as if its call timed out.
    ++dropped_calls_;
    message.transfer.reset();
    const ThreadId client = message.client;
    const SimDuration notice = faults->DelayOf(FaultClass::kRpcDrop);
    kernel_->events().Schedule(ctx.now() + notice,
                               [this, client](SimTime at) {
                                 if (kernel_->Alive(client)) {
                                   kernel_->Wake(client, at);
                                 }
                               });
    return;
  }
  const bool duplicate =
      faults != nullptr && faults->active(FaultClass::kRpcDuplicate) &&
      faults->Fire(FaultClass::kRpcDuplicate, ctx.now());
  if (duplicate) {
    // Second delivery of the same request: a ghost with no funding whose
    // reply will be discarded. The server does the work twice — the
    // observable cost of a duplicated message.
    ++duplicated_calls_;
    RpcMessage ghost;
    ghost.client = message.client;
    ghost.payload = message.payload;
    ghost.sent_at = message.sent_at;
    ghost.ghost = true;
    pending_.push_back(std::move(ghost));
  }

  if (!waiting_servers_.empty()) {
    // A server thread is blocked in receive: fund it directly and wake it
    // ("if the server thread is already waiting... it is immediately funded
    // with the transfer ticket"); it will re-run TryReceive and dequeue.
    const ThreadId server = waiting_servers_.front();
    waiting_servers_.pop_front();
    if (ls != nullptr) {
      message.transfer->FundTarget(ls->thread_currency(server));
    }
    pending_.push_back(std::move(message));
    kernel_->Wake(server, ctx.now());
  } else {
    // No server waiting: park the message, funding every registered server
    // thread through the port currency so one of them can reach receive.
    if (ls != nullptr) {
      message.transfer->FundTarget(currency_);
    }
    pending_.push_back(std::move(message));
  }

  if (faults != nullptr && faults->active(FaultClass::kRpcReorder) &&
      pending_.size() >= 2 &&
      faults->Fire(FaultClass::kRpcReorder, ctx.now())) {
    // Deliver the newest request first: move it to the queue head. The
    // receive path retargets whatever transfer it dequeues, so funding
    // follows the reordered message correctly.
    ++reordered_calls_;
    RpcMessage last = std::move(pending_.back());
    pending_.pop_back();
    pending_.push_front(std::move(last));
  }
}

bool RpcPort::TryReceive(RunContext& ctx, RpcMessage* out) {
  if (pending_.empty()) {
    waiting_servers_.push_back(ctx.self());
    return false;
  }
  RpcMessage message = std::move(pending_.front());
  pending_.pop_front();
  etrace::TraceBuffer* trace = kernel_->etrace();
  if (message.span != 0 && etrace::On(trace, etrace::kCatRpc)) {
    etrace::Event e;
    e.t_ns = ctx.now().nanos();
    e.v1 = message.span;
    e.a = ctx.self();
    e.name = trace_name_;
    e.type = static_cast<uint16_t>(etrace::EventType::kRpcRecv);
    trace->Append(e);
  }
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr && message.transfer != nullptr) {
    // Hand the client's funding to the worker that will process it.
    Currency* mine = ls->thread_currency(ctx.self());
    if (message.transfer->target() != mine) {
      message.transfer->Retarget(mine);
    }
  }
  *out = std::move(message);
  return true;
}

void RpcPort::Reply(RunContext& ctx, RpcMessage message) {
  if (message.client == kInvalidThreadId) {
    throw std::invalid_argument("RpcPort::Reply: message has no client");
  }
  message.transfer.reset();  // destroy the transfer ticket
  if (message.ghost) {
    // Reply to an injected duplicate: the original's reply (already sent
    // or still to come) is the one that wakes the client.
    return;
  }
  if (!kernel_->Alive(message.client)) {
    // The client crashed while its call was in flight; destroying the
    // transfer above reclaimed its retired currency. Nothing to wake.
    ++dead_client_replies_;
    return;
  }
  const SimDuration latency = ctx.now() - message.sent_at;
  m_latency_us_->Record(static_cast<uint64_t>(latency.nanos()) / 1000u);
  etrace::TraceBuffer* trace = kernel_->etrace();
  if (message.span != 0 && etrace::On(trace, etrace::kCatRpc)) {
    etrace::Event e;
    e.t_ns = ctx.now().nanos();
    e.v1 = message.span;
    e.v2 = static_cast<uint64_t>(latency.nanos());
    e.a = ctx.self();
    e.b = message.client;
    e.name = trace_name_;
    e.type = static_cast<uint16_t>(etrace::EventType::kRpcReply);
    trace->Append(e);
  }
  if (kernel_->tracer() != nullptr) {
    kernel_->tracer()->RecordSample(
        "rpc_latency:" + kernel_->ThreadName(message.client), ctx.now(),
        latency.ToSecondsF());
  }
  kernel_->Wake(message.client, ctx.now());
}

void RpcPort::OnThreadExit(ThreadId tid, SimTime /*when*/) {
  // Dead receive-waiter: drop its slot so a future Call cannot try to fund
  // and wake a corpse.
  for (auto it = waiting_servers_.begin(); it != waiting_servers_.end();) {
    if (*it == tid) {
      it = waiting_servers_.erase(it);
    } else {
      ++it;
    }
  }
  // Undelivered calls funded directly at the dying thread (the
  // waiting-server fast path in Call): retarget them to the port currency
  // before RemoveThread destroys the dead thread's currency — and the
  // parked transfer tickets backing it with it — so a surviving server can
  // still pick them up.
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr && currency_ != nullptr) {
    Currency* dead = ls->thread_currency(tid);
    if (dead != nullptr) {
      for (RpcMessage& message : pending_) {
        if (message.transfer != nullptr &&
            message.transfer->target() == dead) {
          message.transfer->Retarget(currency_);
        }
      }
    }
  }
  // Dead registered server: withdraw the port-currency ticket backing its
  // thread currency while that currency still exists.
  const auto it = server_tickets_.find(tid);
  if (it != server_tickets_.end()) {
    kernel_->lottery()->table().DestroyTicket(it->second);
    server_tickets_.erase(it);
  }
}

}  // namespace lottery
