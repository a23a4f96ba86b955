#include "src/sim/sync.h"

#include <stdexcept>

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

SimMutex::SimMutex(Kernel* kernel, const std::string& name)
    : kernel_(kernel),
      name_(name),
      m_acquisitions_(kernel->metrics().counter("mutex.acquisitions")),
      m_contended_(kernel->metrics().counter("mutex.contended")),
      m_wait_us_(kernel->metrics().histogram("mutex.wait_us")),
      waiters_(kernel, "mutex:" + name, m_wait_us_, "mutex_wait:") {
  if (kernel_->etrace() != nullptr) {
    trace_name_ = kernel_->etrace()->Intern("mutex:" + name);
  }
  kernel_->AddExitObserver(this);
}

SimMutex::~SimMutex() { kernel_->RemoveExitObserver(this); }

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
  m_contended_->Inc();
  TraceMutex(kernel_->etrace(), etrace::EventType::kMutexContend,
             ctx.now().nanos(), tid, trace_name_);
  waiters_.Park(tid, ctx.now());
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
  waiters_.Drop(tid);
  if (owner_ == tid) {
    // The owner died holding the lock. Release the inheritance ticket from
    // its doomed currency and pass ownership on, exactly as a voluntary
    // Release would — otherwise the waiters' funding is stranded forever.
    ReleaseAndGrant(when);
  }
}

void SimMutex::ReleaseAndGrant(SimTime now) {
  TraceMutex(kernel_->etrace(), etrace::EventType::kMutexRelease,
             now.nanos(), owner_, trace_name_);
  if (waiters_.empty()) {
    owner_ = kInvalidThreadId;
    waiters_.Inherit(kInvalidThreadId);
    return;
  }
  // The draw values the waiters while the inheritance ticket still funds
  // the releasing owner (the transfers are active through it).
  const WaitQueue::Waiter winner = waiters_.Take(waiters_.Draw(), now);
  TraceMutex(kernel_->etrace(), etrace::EventType::kMutexGrant, now.nanos(),
             winner.tid, trace_name_,
             static_cast<uint64_t>((now - winner.since).nanos()));
  GrantTo(winner.tid);
  kernel_->Wake(winner.tid, now);
}

void SimMutex::GrantTo(ThreadId tid) {
  owner_ = tid;
  ++acquisitions_;
  m_acquisitions_->Inc();
  // The new owner now executes with its own funding plus the funding of
  // all remaining waiters.
  waiters_.Inherit(tid);
}

}  // namespace lottery
