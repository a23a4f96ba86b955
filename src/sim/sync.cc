#include "src/sim/sync.h"

#include <stdexcept>

#include "src/core/weighted_draw.h"
#include "src/obs/etrace/trace_buffer.h"

namespace lottery {

namespace {

// a=tid, name=mutex; kMutexGrant additionally carries the wait in v1.
void TraceMutex(etrace::TraceBuffer* trace, etrace::EventType type,
                int64_t t_ns, ThreadId tid, uint32_t name_id,
                uint64_t waited_ns = 0) {
  if (etrace::On(trace, etrace::kCatMutex)) {
    etrace::Event e;
    e.t_ns = t_ns;
    e.v1 = waited_ns;
    e.a = tid;
    e.name = name_id;
    e.type = static_cast<uint16_t>(type);
    trace->Append(e);
  }
}

}  // namespace

SimMutex::SimMutex(Kernel* kernel, const std::string& name,
                   int64_t transfer_amount)
    : kernel_(kernel),
      name_(name),
      transfer_amount_(transfer_amount),
      m_acquisitions_(kernel->metrics().counter("mutex.acquisitions")),
      m_contended_(kernel->metrics().counter("mutex.contended")),
      m_wait_us_(kernel->metrics().histogram("mutex.wait_us")) {
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    currency_ = ls->table().CreateCurrency("mutex:" + name);
    inheritance_ticket_ =
        ls->table().CreateTicket(currency_, transfer_amount_);
  }
  if (kernel_->etrace() != nullptr) {
    trace_name_ = kernel_->etrace()->Intern("mutex:" + name);
  }
  kernel_->AddExitObserver(this);
}

SimMutex::~SimMutex() {
  kernel_->RemoveExitObserver(this);
  if (currency_ != nullptr) {
    CurrencyTable& table = kernel_->lottery()->table();
    // Outstanding waiters would hold transfer tickets issued in thread
    // currencies funding currency_; destroy them first so the currency can
    // be retired (destructor-time waiters indicate a truncated run, which
    // is normal for fixed-horizon experiments).
    waiters_.clear();
    table.DestroyTicket(inheritance_ticket_);
    table.DestroyCurrency(currency_);
  }
}

ThreadId SimMutex::owner() const {
  util::SeqGuard guard(seq_);
  return owner_;
}

size_t SimMutex::num_waiters() const {
  util::SeqGuard guard(seq_);
  return waiters_.size();
}

uint64_t SimMutex::acquisitions() const {
  util::SeqGuard guard(seq_);
  return acquisitions_;
}

void SimMutex::AssertHeld(ThreadId tid) const {
  util::SeqGuard guard(seq_);
  if (owner_ != tid) {
    throw std::logic_error("SimMutex: AssertHeld(" + std::to_string(tid) +
                           ") but " + name_ + " is owned by " +
                           std::to_string(owner_));
  }
}

void SimMutex::NoteHeldAcrossSlice(ThreadId tid) const {
  // Statically this "releases" the capability (the slice's session ends);
  // at runtime ownership must actually persist into the next slice.
  util::SeqGuard guard(seq_);
  if (owner_ != tid) {
    throw std::logic_error("SimMutex: NoteHeldAcrossSlice(" +
                           std::to_string(tid) + ") but " + name_ +
                           " is owned by " + std::to_string(owner_));
  }
}

bool SimMutex::Acquire(RunContext& ctx) {
  util::SeqGuard guard(seq_);
  const ThreadId tid = ctx.self();
  if (owner_ == tid) {
    throw std::logic_error("SimMutex: recursive acquire of " + name_);
  }
  if (owner_ == kInvalidThreadId) {
    GrantTo(tid);
    TraceMutex(kernel_->etrace(), etrace::EventType::kMutexAcquire,
               ctx.now().nanos(), tid, trace_name_);
    return true;
  }
  Waiter waiter;
  waiter.tid = tid;
  waiter.since = ctx.now();
  m_contended_->Inc();
  TraceMutex(kernel_->etrace(), etrace::EventType::kMutexContend,
             ctx.now().nanos(), tid, trace_name_);
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    // Figure 10: the waiter backs the lock currency with a ticket issued in
    // its own thread currency. Once the waiter blocks, this ticket carries
    // the waiter's entire funding into the lock.
    waiter.transfer = std::make_unique<TicketTransfer>(
        &ls->table(), ls->thread_currency(tid), currency_, transfer_amount_);
    ls->NoteTransfer();
  }
  waiters_.push_back(std::move(waiter));
  return false;
}

void SimMutex::Release(RunContext& ctx) {
  util::SeqGuard guard(seq_);
  if (owner_ != ctx.self()) {
    throw std::logic_error("SimMutex: release by non-owner of " + name_);
  }
  ReleaseAndGrant(ctx.now());
}

void SimMutex::OnThreadExit(ThreadId tid, SimTime when) {
  util::SeqGuard guard(seq_);
  // A dead waiter's transfer rolls back to (what remains of) its thread
  // currency; the erase destroys the TicketTransfer.
  for (auto it = waiters_.begin(); it != waiters_.end(); ++it) {
    if (it->tid == tid) {
      waiters_.erase(it);
      break;
    }
  }
  if (owner_ == tid) {
    // The owner died holding the lock. Release the inheritance ticket from
    // its doomed currency and pass ownership on, exactly as a voluntary
    // Release would — otherwise the waiters' funding is stranded forever.
    ReleaseAndGrant(when);
  }
}

void SimMutex::ReleaseAndGrant(SimTime now) {
  LotteryScheduler* ls = kernel_->lottery();
  TraceMutex(kernel_->etrace(), etrace::EventType::kMutexRelease,
             now.nanos(), owner_, trace_name_);

  if (waiters_.empty()) {
    owner_ = kInvalidThreadId;
    if (ls != nullptr && inheritance_ticket_->funds() != nullptr) {
      ls->table().Unfund(inheritance_ticket_);
    }
    return;
  }

  // Pick the next owner. Lottery mode: weighted by each waiter's
  // transferred funding, measured while the inheritance ticket still funds
  // the releasing owner (the transfers are active through it). All-zero
  // weights, or no lottery scheduler, grant the oldest waiter.
  size_t winner_index = 0;
  if (ls != nullptr) {
    const auto it = DrawWeighted(
        ls->rng(), waiters_.begin(), waiters_.end(), [ls](const Waiter& w) {
          return ls->table().TicketValue(w.transfer->ticket()).raw_unsigned();
        });
    if (it != waiters_.end()) {
      winner_index = static_cast<size_t>(it - waiters_.begin());
    }
  }

  Waiter winner = std::move(waiters_[winner_index]);
  waiters_.erase(waiters_.begin() + static_cast<ptrdiff_t>(winner_index));
  winner.transfer.reset();  // destroy the winner's transfer ticket

  const SimDuration waited = now - winner.since;
  m_wait_us_->Record(static_cast<uint64_t>(waited.nanos()) / 1000u);
  TraceMutex(kernel_->etrace(), etrace::EventType::kMutexGrant, now.nanos(),
             winner.tid, trace_name_,
             static_cast<uint64_t>(waited.nanos()));
  if (kernel_->tracer() != nullptr) {
    kernel_->tracer()->RecordSample(
        "mutex_wait:" + kernel_->ThreadName(winner.tid), now,
        waited.ToSecondsF());
  }

  GrantTo(winner.tid);
  kernel_->Wake(winner.tid, now);
}

void SimMutex::GrantTo(ThreadId tid) {
  owner_ = tid;
  ++acquisitions_;
  m_acquisitions_->Inc();
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    // Move the inheritance ticket: the new owner now executes with its own
    // funding plus the funding of all remaining waiters.
    if (inheritance_ticket_->funds() != nullptr) {
      ls->table().Unfund(inheritance_ticket_);
    }
    ls->table().Fund(ls->thread_currency(tid), inheritance_ticket_);
  }
}

}  // namespace lottery
