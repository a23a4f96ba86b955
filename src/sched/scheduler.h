// Policy-agnostic CPU scheduler interface.
//
// The simulation kernel (src/sim/kernel.h) drives any Scheduler through this
// interface, so the lottery scheduler and every baseline (round-robin,
// decay-usage timesharing, stride) run the identical workloads.
//
// Protocol, from the kernel's point of view:
//   AddThread(id)            thread exists (not yet ready)
//   OnReady(id)              thread enters the run queue
//   PickNext() -> id         removes one ready thread and dispatches it
//   ... thread runs for `used` <= quantum ...
//   OnQuantumEnd(id, used, quantum)
//   then exactly one of:
//     OnReady(id)            still runnable: requeue
//     OnBlocked(id)          blocked/sleeping: leaves the competition
//   RemoveThread(id)         thread exited
// OnBlocked may also target a thread that is sitting in the run queue (e.g.
// a remote actor revoked it); implementations must handle both cases.

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstdint>
#include <string>

#include "src/util/sim_time.h"

namespace lottery {

using ThreadId = uint32_t;
inline constexpr ThreadId kInvalidThreadId = 0xFFFFFFFFu;

class LotteryScheduler;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual void AddThread(ThreadId id, SimTime now) = 0;
  virtual void RemoveThread(ThreadId id, SimTime now) = 0;

  // Thread becomes runnable (enters the run queue).
  virtual void OnReady(ThreadId id, SimTime now) = 0;
  // Thread leaves the runnable set (may or may not be in the run queue).
  virtual void OnBlocked(ThreadId id, SimTime now) = 0;

  // Picks and dequeues the next thread to run, or kInvalidThreadId if the
  // run queue is empty. The picked thread is considered running until the
  // next OnQuantumEnd for it.
  virtual ThreadId PickNext(SimTime now) = 0;

  // SMP dispatch hook: pick the next thread to run on `cpu`. Single-queue
  // schedulers ignore the CPU index; partitioned schedulers (SmpScheduler)
  // route the pick to that CPU's local run queue. The kernel always
  // dispatches through this entry point.
  virtual ThreadId PickNextOnCpu(int /*cpu*/, SimTime now) {
    return PickNext(now);
  }

  // Number of CPUs this scheduler is partitioned for, or 0 when any kernel
  // num_cpus works (single-queue schedulers). The kernel rejects a mismatch
  // at construction, before any dispatch can target a nonexistent queue.
  virtual int partitioned_cpus() const { return 0; }

  // The ticket economy (currency table, transfers, compensation) behind
  // this policy, which the kernel services fund and inherit through; null
  // for the ticketless baselines (round-robin, decay-usage, stride), under
  // which those services fall back to FIFO.
  virtual LotteryScheduler* economy() { return nullptr; }

  // The dispatched thread ran for `used` out of an allotted `quantum`.
  virtual void OnQuantumEnd(ThreadId id, SimDuration used, SimDuration quantum,
                            SimTime now) = 0;

  // Periodic housekeeping; the kernel calls this once per simulated second
  // (decay-usage scheduling needs it; others ignore it).
  virtual void Tick(SimTime /*now*/) {}

  virtual std::string name() const = 0;
};

}  // namespace lottery

#endif  // SRC_SCHED_SCHEDULER_H_
