#include "src/sim/semaphore.h"

#include <stdexcept>

#include "src/core/weighted_draw.h"

namespace lottery {

SimSemaphore::SimSemaphore(Kernel* kernel, const std::string& name,
                           int64_t initial_permits, int64_t transfer_amount)
    : kernel_(kernel),
      name_(name),
      transfer_amount_(transfer_amount),
      permits_(initial_permits),
      m_waits_(kernel->metrics().counter("semaphore.waits")),
      m_wait_us_(kernel->metrics().histogram("semaphore.wait_us")) {
  if (initial_permits < 0) {
    throw std::invalid_argument("SimSemaphore: negative initial permits");
  }
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    currency_ = ls->table().CreateCurrency("sem:" + name);
    inheritance_ticket_ = ls->table().CreateTicket(currency_,
                                                   transfer_amount_);
  }
  kernel_->AddExitObserver(this);
}

SimSemaphore::~SimSemaphore() {
  kernel_->RemoveExitObserver(this);
  if (currency_ != nullptr) {
    CurrencyTable& table = kernel_->lottery()->table();
    waiters_.clear();  // destroys outstanding transfers
    table.DestroyTicket(inheritance_ticket_);
    table.DestroyCurrency(currency_);
  }
}

void SimSemaphore::SetBeneficiary(ThreadId tid) {
  LotteryScheduler* ls = kernel_->lottery();
  if (ls == nullptr) {
    return;
  }
  if (inheritance_ticket_->funds() != nullptr) {
    ls->table().Unfund(inheritance_ticket_);
  }
  beneficiary_ = tid;
  if (tid != kInvalidThreadId) {
    ls->table().Fund(ls->thread_currency(tid), inheritance_ticket_);
  }
}

void SimSemaphore::OnThreadExit(ThreadId tid, SimTime /*when*/) {
  {
    util::SeqGuard guard(seq_);
    std::erase_if(waiters_, [tid](const Waiter& w) { return w.tid == tid; });
  }
  if (tid == beneficiary_) {
    SetBeneficiary(kInvalidThreadId);
  }
}

int64_t SimSemaphore::permits() const {
  util::SeqGuard guard(seq_);
  return permits_;
}

size_t SimSemaphore::num_waiters() const {
  util::SeqGuard guard(seq_);
  return waiters_.size();
}

uint64_t SimSemaphore::total_waits() const {
  util::SeqGuard guard(seq_);
  return total_waits_;
}

bool SimSemaphore::Wait(RunContext& ctx) {
  util::SeqGuard guard(seq_);
  ++total_waits_;
  m_waits_->Inc();
  if (permits_ > 0) {
    --permits_;
    return true;
  }
  Waiter waiter;
  waiter.tid = ctx.self();
  waiter.since = ctx.now();
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    waiter.transfer = std::make_unique<TicketTransfer>(
        &ls->table(), ls->thread_currency(ctx.self()), currency_,
        transfer_amount_);
    ls->NoteTransfer();
  }
  waiters_.push_back(std::move(waiter));
  return false;
}

void SimSemaphore::Signal(RunContext& ctx) {
  util::SeqGuard guard(seq_);
  if (waiters_.empty()) {
    ++permits_;
    return;
  }
  // Weighted wakeup: the transferred funding is visible (active) when the
  // inheritance ticket routes it to a runnable beneficiary; otherwise all
  // weights are zero and the draw degrades to FIFO.
  size_t winner_index = 0;
  LotteryScheduler* ls = kernel_->lottery();
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
  winner.transfer.reset();
  m_wait_us_->Record(
      static_cast<uint64_t>((ctx.now() - winner.since).nanos()) / 1000u);
  if (kernel_->tracer() != nullptr) {
    kernel_->tracer()->RecordSample(
        "sem_wait:" + kernel_->ThreadName(winner.tid), ctx.now(),
        (ctx.now() - winner.since).ToSecondsF());
  }
  kernel_->Wake(winner.tid, ctx.now());
}

}  // namespace lottery
