#include "src/sim/rwlock.h"

#include <algorithm>
#include <ranges>
#include <stdexcept>

#include "src/core/weighted_draw.h"

namespace lottery {

SimRwLock::SimRwLock(Kernel* kernel, const std::string& name,
                     int64_t transfer_amount)
    : kernel_(kernel),
      name_(name),
      transfer_amount_(transfer_amount),
      m_read_admissions_(kernel->metrics().counter("rwlock.read_admissions")),
      m_write_admissions_(
          kernel->metrics().counter("rwlock.write_admissions")),
      m_wait_us_(kernel->metrics().histogram("rwlock.wait_us")) {
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    currency_ = ls->table().CreateCurrency("rwlock:" + name);
    writer_inherit_ = ls->table().CreateTicket(currency_, transfer_amount_);
  }
  kernel_->AddExitObserver(this);
}

SimRwLock::~SimRwLock() {
  kernel_->RemoveExitObserver(this);
  if (currency_ == nullptr) {
    return;
  }
  CurrencyTable& table = kernel_->lottery()->table();
  waiters_.clear();
  for (auto& [tid, ticket] : reader_inherit_) {
    table.DestroyTicket(ticket);
  }
  reader_inherit_.clear();
  table.DestroyTicket(writer_inherit_);
  table.DestroyCurrency(currency_);
}

uint64_t SimRwLock::WaiterWeight(const Waiter& waiter) const {
  LotteryScheduler* ls = kernel_->lottery();
  if (ls == nullptr || waiter.transfer == nullptr) {
    return 0;
  }
  return ls->table().TicketValue(waiter.transfer->ticket()).raw_unsigned();
}

void SimRwLock::AdmitReader(ThreadId tid) {
  ++read_admissions_;
  m_read_admissions_->Inc();
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    Ticket* inherit = ls->table().CreateTicket(currency_, transfer_amount_);
    ls->table().Fund(ls->thread_currency(tid), inherit);
    reader_inherit_[tid] = inherit;
  } else {
    reader_inherit_[tid] = nullptr;
  }
}

void SimRwLock::AdmitWriter(ThreadId tid) {
  ++write_admissions_;
  m_write_admissions_->Inc();
  writer_ = tid;
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    ls->table().Fund(ls->thread_currency(tid), writer_inherit_);
  }
}

size_t SimRwLock::num_readers() const {
  util::SeqGuard guard(seq_);
  return reader_inherit_.size();
}

bool SimRwLock::write_held() const {
  util::SeqGuard guard(seq_);
  return writer_ != kInvalidThreadId;
}

size_t SimRwLock::num_waiters() const {
  util::SeqGuard guard(seq_);
  return waiters_.size();
}

uint64_t SimRwLock::read_admissions() const {
  util::SeqGuard guard(seq_);
  return read_admissions_;
}

uint64_t SimRwLock::write_admissions() const {
  util::SeqGuard guard(seq_);
  return write_admissions_;
}

void SimRwLock::AssertReadHeld(ThreadId tid) const {
  util::SeqGuard guard(seq_);
  if (reader_inherit_.count(tid) == 0) {
    throw std::logic_error("SimRwLock: AssertReadHeld(" +
                           std::to_string(tid) + ") but " + name_ +
                           " has no such reader");
  }
}

void SimRwLock::AssertWriteHeld(ThreadId tid) const {
  util::SeqGuard guard(seq_);
  if (writer_ != tid) {
    throw std::logic_error("SimRwLock: AssertWriteHeld(" +
                           std::to_string(tid) + ") but " + name_ +
                           " is written by " + std::to_string(writer_));
  }
}

void SimRwLock::NoteReadHeldAcrossSlice(ThreadId tid) const {
  AssertReadHeld(tid);  // same runtime check; static session ends here
}

void SimRwLock::NoteWriteHeldAcrossSlice(ThreadId tid) const {
  AssertWriteHeld(tid);
}

bool SimRwLock::AcquireRead(RunContext& ctx) {
  util::SeqGuard guard(seq_);
  const ThreadId tid = ctx.self();
  if (reader_inherit_.count(tid) > 0 || writer_ == tid) {
    throw std::logic_error("SimRwLock: recursive acquire of " + name_);
  }
  const bool writer_waiting =
      std::any_of(waiters_.begin(), waiters_.end(),
                  [](const Waiter& w) { return w.is_writer; });
  if (writer_ == kInvalidThreadId && !writer_waiting) {
    AdmitReader(tid);
    return true;
  }
  Waiter waiter;
  waiter.tid = tid;
  waiter.is_writer = false;
  waiter.since = ctx.now();
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    waiter.transfer = std::make_unique<TicketTransfer>(
        &ls->table(), ls->thread_currency(tid), currency_, transfer_amount_);
    ls->NoteTransfer();
  }
  waiters_.push_back(std::move(waiter));
  return false;
}

bool SimRwLock::AcquireWrite(RunContext& ctx) {
  util::SeqGuard guard(seq_);
  const ThreadId tid = ctx.self();
  if (reader_inherit_.count(tid) > 0 || writer_ == tid) {
    throw std::logic_error("SimRwLock: recursive acquire of " + name_);
  }
  if (writer_ == kInvalidThreadId && reader_inherit_.empty()) {
    AdmitWriter(tid);
    return true;
  }
  Waiter waiter;
  waiter.tid = tid;
  waiter.is_writer = true;
  waiter.since = ctx.now();
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    waiter.transfer = std::make_unique<TicketTransfer>(
        &ls->table(), ls->thread_currency(tid), currency_, transfer_amount_);
    ls->NoteTransfer();
  }
  waiters_.push_back(std::move(waiter));
  return false;
}

void SimRwLock::ReleaseRead(RunContext& ctx) {
  util::SeqGuard guard(seq_);
  ReleaseReadAt(ctx.self(), ctx.now());
}

void SimRwLock::ReleaseWrite(RunContext& ctx) {
  util::SeqGuard guard(seq_);
  ReleaseWriteAt(ctx.self(), ctx.now());
}

void SimRwLock::OnThreadExit(ThreadId tid, SimTime when) {
  util::SeqGuard guard(seq_);
  std::erase_if(waiters_, [tid](const Waiter& w) { return w.tid == tid; });
  if (writer_ == tid) {
    ReleaseWriteAt(tid, when);
  } else if (reader_inherit_.count(tid) > 0) {
    ReleaseReadAt(tid, when);
  }
}

void SimRwLock::ReleaseReadAt(ThreadId tid, SimTime now) {
  const auto it = reader_inherit_.find(tid);
  if (it == reader_inherit_.end()) {
    throw std::logic_error("SimRwLock: ReleaseRead by non-reader of " +
                           name_);
  }
  LotteryScheduler* ls = kernel_->lottery();
  // Decide admission before tearing down this reader's inheritance, while
  // waiter transfers are still active through it.
  if (reader_inherit_.size() == 1 && !waiters_.empty()) {
    AdmitNext(tid, now);  // destroys the releaser's inheritance internally
    return;
  }
  if (ls != nullptr && it->second != nullptr) {
    ls->table().DestroyTicket(it->second);
  }
  reader_inherit_.erase(it);
}

void SimRwLock::ReleaseWriteAt(ThreadId tid, SimTime now) {
  if (writer_ != tid) {
    throw std::logic_error("SimRwLock: ReleaseWrite by non-writer of " +
                           name_);
  }
  if (!waiters_.empty()) {
    AdmitNext(tid, now);
    return;
  }
  writer_ = kInvalidThreadId;
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr && writer_inherit_->funds() != nullptr) {
    ls->table().Unfund(writer_inherit_);
  }
}

void SimRwLock::AdmitNext(ThreadId releaser, SimTime now) {
  // Weights are computed while the releasing holder still carries the lock
  // currency's funding (transfers active through it). This pass values
  // every waiter in queue order, writers too, so the draw below reads
  // cached values.
  uint64_t reader_total = 0;
  for (const Waiter& waiter : waiters_) {
    const uint64_t weight = WaiterWeight(waiter);
    if (!waiter.is_writer) {
      reader_total += weight;
    }
  }

  // Choose: the reader group as one entrant (entrant 0) against each writer
  // individually (entrant i + 1 is waiters_[i]). All-zero weights, or no
  // lottery scheduler, follow the oldest waiter's kind (FIFO).
  const auto entrants = std::views::iota(size_t{0}, waiters_.size() + 1);
  auto drawn = entrants.end();
  LotteryScheduler* ls = kernel_->lottery();
  if (ls != nullptr) {
    drawn = DrawWeighted(ls->rng(), entrants.begin(), entrants.end(),
                         [&](size_t entrant) {
                           if (entrant == 0) {
                             return reader_total;
                           }
                           const Waiter& waiter = waiters_[entrant - 1];
                           return waiter.is_writer ? WaiterWeight(waiter)
                                                   : uint64_t{0};
                         });
  }
  size_t entrant = waiters_.front().is_writer ? 1 : 0;
  if (drawn != entrants.end()) {
    entrant = *drawn;
  }

  // Tear down the releasing holder's inheritance now that the draw is done.
  if (ls != nullptr) {
    if (writer_ == releaser) {
      if (writer_inherit_->funds() != nullptr) {
        ls->table().Unfund(writer_inherit_);
      }
    } else {
      const auto it = reader_inherit_.find(releaser);
      if (it != reader_inherit_.end() && it->second != nullptr) {
        ls->table().DestroyTicket(it->second);
        reader_inherit_.erase(it);
      }
    }
  } else {
    reader_inherit_.erase(releaser);
  }
  if (writer_ == releaser) {
    writer_ = kInvalidThreadId;
  }

  if (entrant == 0) {
    std::vector<Waiter> keep;
    for (Waiter& waiter : waiters_) {
      if (waiter.is_writer) {
        keep.push_back(std::move(waiter));
        continue;
      }
      waiter.transfer.reset();
      m_wait_us_->Record(
          static_cast<uint64_t>((now - waiter.since).nanos()) / 1000u);
      AdmitReader(waiter.tid);
      kernel_->Wake(waiter.tid, now);
    }
    waiters_ = std::move(keep);
  } else {
    const size_t writer_index = entrant - 1;
    Waiter winner = std::move(waiters_[writer_index]);
    waiters_.erase(waiters_.begin() + static_cast<ptrdiff_t>(writer_index));
    winner.transfer.reset();
    m_wait_us_->Record(
        static_cast<uint64_t>((now - winner.since).nanos()) / 1000u);
    AdmitWriter(winner.tid);
    kernel_->Wake(winner.tid, now);
  }
}

}  // namespace lottery
