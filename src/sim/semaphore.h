// Lottery-scheduled counting semaphore.
//
// Section 6 argues that "a lottery can be used to allocate resources
// wherever queueing is necessary for resource access"; Section 6.1 works
// the mutex case. A counting semaphore generalizes it to producer/consumer
// structures on the same WaitQueue (wait_queue.h), keeping only its
// permits and its beneficiary: Signal() wakes the waiter the queue's
// lottery picks.
//
// Funding inheritance needs a target: a mutex inherits to its owner, but a
// semaphore's "owner" is whoever will produce the next permit. The
// semaphore therefore accepts an optional *beneficiary* thread (e.g. the
// producer filling a queue); the semaphore's inheritance ticket funds it,
// so the blocked consumers' resource rights speed up exactly the thread
// that can unblock them — the same dependency-following logic as the
// paper's RPC transfers. Without a beneficiary, waiter funding is parked
// (inactive) and Signal falls back to FIFO wakeups. A dead beneficiary is
// detached, its inheritance ticket unfunded before the thread's currency
// goes.
//
// Under non-lottery schedulers the semaphore is plain FIFO.

#ifndef SRC_SIM_SEMAPHORE_H_
#define SRC_SIM_SEMAPHORE_H_

#include <cstdint>
#include <string>

#include "src/obs/registry.h"
#include "src/sim/kernel.h"
#include "src/sim/wait_queue.h"
#include "src/util/thread_safety.h"

namespace lottery {

// Unlike SimMutex/SimRwLock, a semaphore is not a caller-facing capability
// (Signal is legal from producers that never Wait), so only its internal
// permit/waiter state is annotated — a serialization domain the SMP kernel
// will replace with a real lock.
class SimSemaphore : public ThreadExitObserver {
 public:
  SimSemaphore(Kernel* kernel, const std::string& name,
               int64_t initial_permits, int64_t transfer_amount = 1000);
  ~SimSemaphore() override;
  SimSemaphore(const SimSemaphore&) = delete;
  SimSemaphore& operator=(const SimSemaphore&) = delete;

  // Routes waiter funding to `tid` (the thread expected to Signal), via the
  // semaphore's inheritance ticket. Pass kInvalidThreadId to detach.
  void SetBeneficiary(ThreadId tid);

  // Takes a permit if available (returns true). Otherwise registers the
  // caller as a waiter — the body must then ctx.Block(); when woken it
  // holds a permit.
  bool Wait(RunContext& ctx);

  // Releases one permit. If waiters exist, one is chosen by lottery over
  // transferred funding (FIFO when no funding is visible) and woken.
  void Signal(RunContext& ctx);

  int64_t permits() const;
  size_t num_waiters() const;
  uint64_t total_waits() const;

  void OnThreadExit(ThreadId tid, SimTime when) override;

 private:
  Kernel* kernel_;

  // Obs hooks (from the kernel's registry).
  obs::Counter* m_waits_;
  obs::LatencyHistogram* m_wait_us_;

  // Serialization domain for the permit count, beneficiary and waiters.
  mutable util::Seq seq_;
  int64_t permits_ GUARDED_BY(seq_);
  ThreadId beneficiary_ GUARDED_BY(seq_) = kInvalidThreadId;
  WaitQueue waiters_ GUARDED_BY(seq_);
  uint64_t total_waits_ GUARDED_BY(seq_) = 0;
  // Funds the beneficiary (null when the policy scheduler is not lottery).
  Ticket* inheritance_ticket_;
};

}  // namespace lottery

#endif  // SRC_SIM_SEMAPHORE_H_
