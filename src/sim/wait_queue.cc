#include "src/sim/wait_queue.h"

#include <utility>

#include "src/core/weighted_draw.h"

namespace lottery {

WaitQueue::WaitQueue(Kernel* kernel, const std::string& currency_name,
                     int64_t transfer_amount, obs::LatencyHistogram* wait_us,
                     std::string wait_series)
    : kernel_(kernel),
      economy_(kernel->lottery()),
      transfer_amount_(transfer_amount),
      wait_us_(wait_us),
      wait_series_(std::move(wait_series)) {
  if (economy_ != nullptr) {
    currency_ = economy_->table().CreateCurrency(currency_name);
  }
}

WaitQueue::~WaitQueue() {
  if (currency_ == nullptr) {
    return;
  }
  // Waiter transfers fund the currency and inheritance tickets are issued
  // in it; both must go before it can.
  waiters_.clear();
  CurrencyTable& table = economy_->table();
  for (auto it = tickets_.rbegin(); it != tickets_.rend(); ++it) {
    table.DestroyTicket(*it);
  }
  table.DestroyCurrency(currency_);
}

Ticket* WaitQueue::IssueTicket() {
  if (currency_ == nullptr) {
    return nullptr;
  }
  Ticket* ticket = economy_->table().CreateTicket(currency_, transfer_amount_);
  tickets_.push_back(ticket);
  return ticket;
}

void WaitQueue::Inherit(Ticket* ticket, ThreadId tid) {
  if (ticket == nullptr) {
    return;
  }
  CurrencyTable& table = economy_->table();
  if (ticket->funds() != nullptr) {
    table.Unfund(ticket);
  }
  if (tid != kInvalidThreadId) {
    table.Fund(economy_->thread_currency(tid), ticket);
  }
}

void WaitQueue::DestroyTicket(Ticket* ticket) {
  if (ticket == nullptr) {
    return;
  }
  std::erase(tickets_, ticket);
  economy_->table().DestroyTicket(ticket);
}

void WaitQueue::Park(ThreadId tid, SimTime now, bool writer) {
  Waiter waiter{tid, now, writer, std::nullopt};
  if (economy_ != nullptr) {
    waiter.transfer.emplace(&economy_->table(), economy_->thread_currency(tid),
                            currency_, transfer_amount_);
    economy_->NoteTransfer();
  }
  waiters_.push_back(std::move(waiter));
}

uint64_t WaitQueue::Weight(const Waiter& waiter) const {
  if (!waiter.transfer.has_value()) {
    return 0;
  }
  return economy_->table().TicketValue(waiter.transfer->ticket())
      .raw_unsigned();
}

size_t WaitQueue::Draw() {
  if (economy_ == nullptr) {
    return 0;
  }
  // Valued while the inheritance tickets still fund the current holders,
  // so the waiters' transfers are active through them.
  const auto it = DrawWeighted(
      economy_->rng(), waiters_.begin(), waiters_.end(),
      [this](const Waiter& waiter) { return Weight(waiter); });
  return it == waiters_.end() ? 0
                              : static_cast<size_t>(it - waiters_.begin());
}

WaitQueue::Waiter WaitQueue::Take(size_t index, SimTime now) {
  Waiter waiter = std::move(waiters_[index]);
  waiters_.erase(waiters_.begin() + static_cast<ptrdiff_t>(index));
  waiter.transfer.reset();
  const SimDuration waited = now - waiter.since;
  wait_us_->Record(static_cast<uint64_t>(waited.nanos()) / 1000u);
  if (kernel_->tracer() != nullptr) {
    kernel_->tracer()->RecordSample(
        wait_series_ + kernel_->ThreadName(waiter.tid), now,
        waited.ToSecondsF());
  }
  return waiter;
}

void WaitQueue::Drop(ThreadId tid) {
  std::erase_if(waiters_,
                [tid](const Waiter& waiter) { return waiter.tid == tid; });
}

}  // namespace lottery
