// Lottery-scheduled mutex (Section 6.1, Figures 10 and 11), built on the
// shared WaitQueue (wait_queue.h). The mutex keeps only its admission
// rule, one owner: the queue's one inheritance ticket funds that owner,
// which therefore runs with its own funding plus all waiters' funding (the
// paper's answer to priority inversion), and on release the queue's
// lottery picks the next owner.
//
// Under a non-lottery scheduler the same object degrades to a plain FIFO
// mutex (no transfers), so every baseline can run the identical workload.

#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <cstdint>
#include <string>

#include "src/obs/registry.h"
#include "src/sim/kernel.h"
#include "src/sim/wait_queue.h"
#include "src/util/thread_safety.h"

namespace lottery {

// Observes thread exits so that an owner dying while holding the lock —
// voluntarily or through an injected crash — releases the inheritance
// ticket and passes ownership on instead of stranding the waiters' funding
// in a currency about to be destroyed.
//
// The class is a clang thread-safety *capability*: Acquire/Release carry
// TRY_ACQUIRE/RELEASE attributes, so straight-line critical sections are
// checked statically. Bodies that hold the mutex across scheduling slices
// (the normal cooperative pattern) end each slice's static session with
// NoteHeldAcrossSlice and re-establish it with AssertHeld on resume — both
// runtime-check real ownership. See thread_safety.h for the protocol.
class CAPABILITY("mutex") SimMutex : public ThreadExitObserver {
 public:
  // `kernel` must outlive the mutex. Transfer amounts are the face value of
  // waiter transfer tickets; any positive constant works (shares are
  // relative within each waiter's thread currency).
  SimMutex(Kernel* kernel, const std::string& name,
           int64_t transfer_amount = 1000);
  ~SimMutex();
  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  // Attempts to acquire for ctx.self(). Returns true if the mutex was free
  // (caller now owns it). Otherwise registers the caller as a waiter with a
  // ticket transfer and returns false; the body must then ctx.Block().
  // When the thread is next woken it owns the mutex.
  bool Acquire(RunContext& ctx) TRY_ACQUIRE(true);

  // Releases the mutex; if waiters exist, holds a lottery among them,
  // hands ownership (and the inheritance ticket) to the winner, and wakes
  // it at ctx.now().
  void Release(RunContext& ctx) RELEASE();

  // Cross-slice protocol (see the class comment). AssertHeld tells the
  // static analysis the capability is held and runtime-checks that `tid`
  // really owns the mutex; NoteHeldAcrossSlice ends the static session at a
  // slice boundary (no runtime state changes — the mutex stays owned).
  void AssertHeld(ThreadId tid) const ASSERT_CAPABILITY(this);
  void NoteHeldAcrossSlice(ThreadId tid) const RELEASE();

  ThreadId owner() const;
  size_t num_waiters() const;
  const std::string& name() const { return name_; }

  // Total acquisitions granted so far (for the Figure 11 counts).
  uint64_t acquisitions() const;

  // ThreadExitObserver: purges the dead thread from the waiter list (its
  // transfer rolls back) and, if it owned the mutex, releases and re-grants
  // at `when` so the lock currency never funds a destroyed currency.
  void OnThreadExit(ThreadId tid, SimTime when) override;

 private:
  void GrantTo(ThreadId tid) REQUIRES(seq_);
  // The release path shared by Release and OnThreadExit: drops or re-grants
  // the inheritance ticket and wakes the lottery-picked next owner.
  void ReleaseAndGrant(SimTime now) REQUIRES(seq_);

  Kernel* kernel_;
  std::string name_;

  // Obs hooks (from the kernel's registry): grants, contended acquires, and
  // the Figure 11 waiting-time histogram in microseconds of simulated time.
  obs::Counter* m_acquisitions_;
  obs::Counter* m_contended_;
  obs::LatencyHistogram* m_wait_us_;

  // Serialization domain for the waiter queue and ownership word: the state
  // an SMP kernel would protect with a spinlock. Every public entry point
  // enters it; Debug builds assert the domain is never re-entered.
  mutable util::Seq seq_;
  ThreadId owner_ GUARDED_BY(seq_) = kInvalidThreadId;
  WaitQueue waiters_ GUARDED_BY(seq_);
  uint64_t acquisitions_ GUARDED_BY(seq_) = 0;
  // Funds the owner (null when the policy scheduler is not lottery).
  Ticket* inheritance_ticket_;
  // Interned mutex name for trace events (0 when tracing is off).
  uint32_t trace_name_ = 0;
};

}  // namespace lottery

#endif  // SRC_SIM_SYNC_H_
