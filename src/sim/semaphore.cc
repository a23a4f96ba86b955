#include "src/sim/semaphore.h"

#include <stdexcept>

namespace lottery {

namespace {

int64_t ValidPermits(int64_t permits) {
  if (permits < 0) {
    throw std::invalid_argument("SimSemaphore: negative initial permits");
  }
  return permits;
}

}  // namespace

SimSemaphore::SimSemaphore(Kernel* kernel, const std::string& name,
                           int64_t initial_permits, int64_t transfer_amount)
    : kernel_(kernel),
      m_waits_(kernel->metrics().counter("semaphore.waits")),
      m_wait_us_(kernel->metrics().histogram("semaphore.wait_us")),
      permits_(ValidPermits(initial_permits)),
      waiters_(kernel, "sem:" + name, transfer_amount, m_wait_us_,
               "sem_wait:"),
      inheritance_ticket_(waiters_.IssueTicket()) {
  kernel_->AddExitObserver(this);
}

SimSemaphore::~SimSemaphore() { kernel_->RemoveExitObserver(this); }

void SimSemaphore::SetBeneficiary(ThreadId tid) {
  util::SeqGuard guard(seq_);
  waiters_.Inherit(inheritance_ticket_, tid);
  beneficiary_ = tid;
}

void SimSemaphore::OnThreadExit(ThreadId tid, SimTime /*when*/) {
  util::SeqGuard guard(seq_);
  waiters_.Drop(tid);
  if (tid == beneficiary_) {
    waiters_.Inherit(inheritance_ticket_, kInvalidThreadId);
    beneficiary_ = kInvalidThreadId;
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
  waiters_.Park(ctx.self(), ctx.now());
  return false;
}

void SimSemaphore::Signal(RunContext& ctx) {
  util::SeqGuard guard(seq_);
  if (waiters_.empty()) {
    ++permits_;
    return;
  }
  // The transferred funding is visible (active) when the inheritance
  // ticket routes it to a runnable beneficiary; otherwise every weight is
  // zero and the oldest waiter wakes.
  const ThreadId tid = waiters_.Take(waiters_.Draw(), ctx.now()).tid;
  kernel_->Wake(tid, ctx.now());
}

}  // namespace lottery
