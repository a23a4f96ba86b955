// Lottery-scheduled reader-writer lock.
//
// Extends the Section 6.1 mutex design to shared/exclusive acquisition.
// The lock has its own currency; blocked threads transfer their funding
// into it, and each current holder (the writer, or every active reader)
// carries an inheritance ticket issued in the lock currency — so waiter
// funding flows to whoever must finish before the waiters can proceed,
// splitting evenly among concurrent readers by the ordinary Section 4.4
// share arithmetic.
//
// When the lock empties, the next admission is decided by a lottery between
// each waiting writer and the *group* of waiting readers (weights are the
// transferred fundings; the reader group's weight is the sum of its
// members'). If the reader group wins, all waiting readers are admitted at
// once. Writers therefore cannot be starved by a reader stream — they hold
// tickets in every draw — but neither do they get absolute priority: the
// relative funding decides, which is the paper's position on all
// rate-control questions.
//
// Under non-lottery schedulers the lock degrades to FIFO-ish admission
// (readers batch, writers in arrival order).
//
// The lock observes thread exits: a dead waiter leaves the queue (its
// transfer rolls back), and a holder that dies — voluntarily or through an
// injected crash — releases the lock exactly as ReleaseRead/ReleaseWrite
// would, admitting waiters, before its currency is destroyed.

#ifndef SRC_SIM_RWLOCK_H_
#define SRC_SIM_RWLOCK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/transfer.h"
#include "src/obs/registry.h"
#include "src/sim/kernel.h"
#include "src/util/thread_safety.h"

namespace lottery {

// A clang thread-safety capability: AcquireWrite/ReleaseWrite bracket the
// exclusive capability, AcquireRead/ReleaseRead the shared one. Bodies
// holding the lock across scheduling slices use the cross-slice protocol
// (NoteHeldAcrossSlice / AssertHeld, both runtime-checked) — see
// thread_safety.h.
class CAPABILITY("rwlock") SimRwLock : public ThreadExitObserver {
 public:
  SimRwLock(Kernel* kernel, const std::string& name,
            int64_t transfer_amount = 1000);
  ~SimRwLock() override;
  SimRwLock(const SimRwLock&) = delete;
  SimRwLock& operator=(const SimRwLock&) = delete;

  // Shared acquisition. Returns true if granted immediately; otherwise the
  // caller is queued (must ctx.Block()) and is woken holding the lock.
  // A new reader is admitted immediately only when no writer holds the
  // lock and no writer is waiting (writers would otherwise starve).
  bool AcquireRead(RunContext& ctx) TRY_ACQUIRE_SHARED(true);
  // Exclusive acquisition; same contract.
  bool AcquireWrite(RunContext& ctx) TRY_ACQUIRE(true);

  void ReleaseRead(RunContext& ctx) RELEASE_SHARED();
  void ReleaseWrite(RunContext& ctx) RELEASE();

  // Cross-slice protocol (runtime-checked; see thread_safety.h).
  void AssertReadHeld(ThreadId tid) const ASSERT_SHARED_CAPABILITY(this);
  void AssertWriteHeld(ThreadId tid) const ASSERT_CAPABILITY(this);
  void NoteReadHeldAcrossSlice(ThreadId tid) const RELEASE_SHARED();
  void NoteWriteHeldAcrossSlice(ThreadId tid) const RELEASE();

  size_t num_readers() const;
  bool write_held() const;
  size_t num_waiters() const;
  uint64_t read_admissions() const;
  uint64_t write_admissions() const;

  void OnThreadExit(ThreadId tid, SimTime when) override;

 private:
  struct Waiter {
    ThreadId tid;
    bool is_writer;
    std::unique_ptr<TicketTransfer> transfer;
    SimTime since;
  };

  uint64_t WaiterWeight(const Waiter& waiter) const;
  void AdmitReader(ThreadId tid) REQUIRES(seq_);
  void AdmitWriter(ThreadId tid) REQUIRES(seq_);
  // The release paths shared by ReleaseRead/ReleaseWrite and OnThreadExit.
  void ReleaseReadAt(ThreadId tid, SimTime now) REQUIRES(seq_);
  void ReleaseWriteAt(ThreadId tid, SimTime now) REQUIRES(seq_);
  // Runs the admission lottery after `releaser` empties the lock.
  void AdmitNext(ThreadId releaser, SimTime now) REQUIRES(seq_);

  Kernel* kernel_;
  std::string name_;
  int64_t transfer_amount_;
  // Serialization domain for admission state — the lock word, waiter list
  // and inheritance tickets an SMP kernel would protect with a spinlock.
  mutable util::Seq seq_;
  ThreadId writer_ GUARDED_BY(seq_) = kInvalidThreadId;
  std::vector<Waiter> waiters_ GUARDED_BY(seq_);
  uint64_t read_admissions_ GUARDED_BY(seq_) = 0;
  uint64_t write_admissions_ GUARDED_BY(seq_) = 0;

  Currency* currency_ = nullptr;
  Ticket* writer_inherit_ = nullptr;  // funds the writer while write-held
  std::map<ThreadId, Ticket*> reader_inherit_
      GUARDED_BY(seq_);  // one per active reader

  // Obs hooks (from the kernel's registry).
  obs::Counter* m_read_admissions_;
  obs::Counter* m_write_admissions_;
  obs::LatencyHistogram* m_wait_us_;
};

}  // namespace lottery

#endif  // SRC_SIM_RWLOCK_H_
