// The lottery wait queue of Section 6.1, written once for every service
// that makes threads wait: SimMutex, SimSemaphore and SimRwLock.
//
// Figure 10's mechanism: the resource has its own currency. A thread that
// parks backs it with a ticket issued in its own thread currency (a
// TicketTransfer); once the waiter blocks, that ticket carries the
// waiter's whole funding into the resource. Inheritance tickets issued in
// the resource currency pass the pooled funding on to whoever the waiters
// wait for: the mutex owner, the semaphore's beneficiary, the rwlock's
// writer or each of its readers. When the resource frees up, a lottery
// over the waiters' transferred values picks who goes next. Section 6
// applies this "wherever queueing is necessary"; each service keeps only
// its admission rule and does its own wakes.
//
// Without a ticket economy (a non-lottery scheduler) the queue creates no
// currency, tickets or transfers, and every draw takes the oldest waiter,
// so baselines run the identical workloads FIFO.
//
// The queue has no serialization domain of its own: the owning service
// declares it GUARDED_BY its util::Seq and calls it with the domain held.

#ifndef SRC_SIM_WAIT_QUEUE_H_
#define SRC_SIM_WAIT_QUEUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/transfer.h"
#include "src/obs/histogram.h"
#include "src/sim/kernel.h"

namespace lottery {

class WaitQueue {
 public:
  struct Waiter {
    ThreadId tid;
    SimTime since;
    bool writer;  // a SimRwLock writer; false for every other waiter
    std::optional<TicketTransfer> transfer;  // empty without an economy
  };

  // Creates `currency_name` in the kernel's economy, if it has one.
  // `transfer_amount` is the face value of waiter transfers and inheritance
  // tickets (any positive constant: shares are relative within each
  // currency). Every wait taken out is recorded in `wait_us` (microseconds
  // of simulated time) and in the kernel's Tracer as `wait_series` followed
  // by the thread's name.
  WaitQueue(Kernel* kernel, const std::string& currency_name,
            int64_t transfer_amount, obs::LatencyHistogram* wait_us,
            std::string wait_series);
  // Ends outstanding transfers, destroys the remaining inheritance tickets
  // (newest first), then the currency. Waiters left at destruction mean a
  // truncated run, which is normal for fixed-horizon experiments.
  ~WaitQueue();
  WaitQueue(const WaitQueue&) = delete;
  WaitQueue& operator=(const WaitQueue&) = delete;

  // Issues an inheritance ticket in the queue's currency, funding nobody
  // (null without an economy).
  Ticket* IssueTicket();
  // The one move an inheritance ticket makes: it now funds `tid`'s thread
  // currency, or nobody for kInvalidThreadId. A null ticket is a no-op.
  void Inherit(Ticket* ticket, ThreadId tid);
  void DestroyTicket(Ticket* ticket);

  // Appends `tid` in arrival order and transfers its funding into the
  // queue's currency. The caller then blocks the thread.
  void Park(ThreadId tid, SimTime now, bool writer = false);

  // A waiter's transferred value in base units (0 without an economy).
  uint64_t Weight(const Waiter& waiter) const;
  // Index of the waiter a lottery over the transferred values picks,
  // valued in queue order; the oldest (0) when every weight is zero or
  // there is no economy. The queue must not be empty.
  size_t Draw();
  // Takes waiter `index` out: its transfer ends and its wait is recorded.
  // The caller admits and wakes it.
  Waiter Take(size_t index, SimTime now);
  // Drops a dead thread's entry; its transfer rolls back unrecorded.
  void Drop(ThreadId tid);

  bool empty() const { return waiters_.empty(); }
  size_t size() const { return waiters_.size(); }
  const Waiter& operator[](size_t index) const { return waiters_[index]; }
  const Waiter& front() const { return waiters_.front(); }
  std::vector<Waiter>::const_iterator begin() const {
    return waiters_.begin();
  }
  std::vector<Waiter>::const_iterator end() const { return waiters_.end(); }

 private:
  Kernel* kernel_;
  LotteryScheduler* economy_;  // null under a non-lottery scheduler
  int64_t transfer_amount_;
  obs::LatencyHistogram* wait_us_;
  std::string wait_series_;
  Currency* currency_ = nullptr;
  std::vector<Ticket*> tickets_;  // live inheritance tickets, issue order
  std::vector<Waiter> waiters_;   // arrival order
};

}  // namespace lottery

#endif  // SRC_SIM_WAIT_QUEUE_H_
