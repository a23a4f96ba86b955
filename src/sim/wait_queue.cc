#include "src/sim/wait_queue.h"

#include <utility>

#include "src/core/weighted_draw.h"

namespace lottery {

namespace {

// Face value of waiter transfers and of the inheritance ticket. Any
// positive constant gives the same shares: they are relative within each
// currency.
constexpr int64_t kTransferAmount = 1000;

}  // namespace

WaitQueue::WaitQueue(Kernel* kernel, const std::string& currency_name,
                     obs::LatencyHistogram* wait_us, std::string wait_series)
    : kernel_(kernel),
      economy_(kernel->lottery()),
      wait_us_(wait_us),
      wait_series_(std::move(wait_series)) {
  if (economy_ != nullptr) {
    CurrencyTable& table = economy_->table();
    currency_ = table.CreateCurrency(currency_name);
    inheritance_ = table.CreateTicket(currency_, kTransferAmount);
  }
}

WaitQueue::~WaitQueue() {
  if (currency_ == nullptr) {
    return;
  }
  // Waiter transfers fund the currency and the inheritance ticket is
  // issued in it; both must go before it can.
  waiters_.clear();
  CurrencyTable& table = economy_->table();
  table.DestroyTicket(inheritance_);
  table.DestroyCurrency(currency_);
}

void WaitQueue::Inherit(ThreadId tid) {
  if (inheritance_ == nullptr) {
    return;
  }
  CurrencyTable& table = economy_->table();
  if (inheritance_->funds() != nullptr) {
    table.Unfund(inheritance_);
  }
  if (tid != kInvalidThreadId) {
    table.Fund(economy_->thread_currency(tid), inheritance_);
  }
}

void WaitQueue::Park(ThreadId tid, SimTime now) {
  Waiter waiter{tid, now, std::nullopt};
  if (economy_ != nullptr) {
    waiter.transfer.emplace(&economy_->table(), economy_->thread_currency(tid),
                            currency_, kTransferAmount);
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
  // Valued while the inheritance ticket still funds the current holder, so
  // the waiters' transfers are active through it.
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
