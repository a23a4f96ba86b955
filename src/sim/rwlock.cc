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
      m_read_admissions_(kernel->metrics().counter("rwlock.read_admissions")),
      m_write_admissions_(
          kernel->metrics().counter("rwlock.write_admissions")),
      m_wait_us_(kernel->metrics().histogram("rwlock.wait_us")),
      waiters_(kernel, "rwlock:" + name, transfer_amount, m_wait_us_,
               "rwlock_wait:"),
      writer_inherit_(waiters_.IssueTicket()) {
  kernel_->AddExitObserver(this);
}

SimRwLock::~SimRwLock() { kernel_->RemoveExitObserver(this); }

void SimRwLock::AdmitReader(ThreadId tid) {
  ++read_admissions_;
  m_read_admissions_->Inc();
  Ticket* inherit = waiters_.IssueTicket();
  waiters_.Inherit(inherit, tid);
  reader_inherit_[tid] = inherit;
}

void SimRwLock::AdmitWriter(ThreadId tid) {
  ++write_admissions_;
  m_write_admissions_->Inc();
  writer_ = tid;
  waiters_.Inherit(writer_inherit_, tid);
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
                  [](const WaitQueue::Waiter& w) { return w.writer; });
  if (writer_ == kInvalidThreadId && !writer_waiting) {
    AdmitReader(tid);
    return true;
  }
  waiters_.Park(tid, ctx.now());
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
  waiters_.Park(tid, ctx.now(), /*writer=*/true);
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
  waiters_.Drop(tid);
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
  // Decide admission before tearing down this reader's inheritance, while
  // waiter transfers are still active through it.
  if (reader_inherit_.size() == 1 && !waiters_.empty()) {
    AdmitNext(tid, now);  // destroys the releaser's inheritance internally
    return;
  }
  waiters_.DestroyTicket(it->second);
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
  waiters_.Inherit(writer_inherit_, kInvalidThreadId);
}

void SimRwLock::AdmitNext(ThreadId releaser, SimTime now) {
  // Weights are computed while the releasing holder still carries the lock
  // currency's funding (transfers active through it). This pass values
  // every waiter in queue order, writers too, so the draw below reads
  // cached values.
  uint64_t reader_total = 0;
  for (const WaitQueue::Waiter& waiter : waiters_) {
    const uint64_t weight = waiters_.Weight(waiter);
    if (!waiter.writer) {
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
    // Read through a reference: clang's thread-safety analysis does not
    // carry seq_ into the lambda's body.
    const WaitQueue& queue = waiters_;
    drawn = DrawWeighted(ls->rng(), entrants.begin(), entrants.end(),
                         [&queue, reader_total](size_t entrant) {
                           if (entrant == 0) {
                             return reader_total;
                           }
                           const WaitQueue::Waiter& waiter = queue[entrant - 1];
                           return waiter.writer ? queue.Weight(waiter)
                                                : uint64_t{0};
                         });
  }
  size_t entrant = waiters_.front().writer ? 1 : 0;
  if (drawn != entrants.end()) {
    entrant = *drawn;
  }

  // Tear down the releasing holder's inheritance now that the draw is done.
  if (writer_ == releaser) {
    writer_ = kInvalidThreadId;
    waiters_.Inherit(writer_inherit_, kInvalidThreadId);
  } else {
    const auto it = reader_inherit_.find(releaser);
    if (it != reader_inherit_.end()) {
      waiters_.DestroyTicket(it->second);
      reader_inherit_.erase(it);
    }
  }

  if (entrant == 0) {
    for (size_t i = 0; i < waiters_.size();) {
      if (waiters_[i].writer) {
        ++i;
        continue;
      }
      const ThreadId tid = waiters_.Take(i, now).tid;
      AdmitReader(tid);
      kernel_->Wake(tid, now);
    }
  } else {
    const ThreadId tid = waiters_.Take(entrant - 1, now).tid;
    AdmitWriter(tid);
    kernel_->Wake(tid, now);
  }
}

}  // namespace lottery
