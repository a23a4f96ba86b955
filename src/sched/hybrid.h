// Hybrid fixed-priority + lottery scheduler.
//
// Section 4: "Our lottery scheduling policy co-exists with the standard
// timesharing and fixed-priority policies. A few high-priority threads
// (such as the Ethernet driver) created by the Unix server remain at their
// original fixed priorities." This composite reproduces that arrangement:
// threads promoted to a fixed priority band take absolute precedence (among
// themselves: priority order, FIFO within a level); everything else is
// scheduled by an embedded LotteryScheduler. The intended use is exactly
// the paper's: a handful of short-running system threads above a
// proportional-share world.

#ifndef SRC_SCHED_HYBRID_H_
#define SRC_SCHED_HYBRID_H_

#include <memory>
#include <unordered_set>

#include "src/core/lottery_scheduler.h"
#include "src/sched/priority.h"
#include "src/sched/scheduler.h"

namespace lottery {

class HybridScheduler : public Scheduler {
 public:
  HybridScheduler() : HybridScheduler(LotteryScheduler::Options{}) {}
  explicit HybridScheduler(LotteryScheduler::Options lottery_options)
      : lottery_(lottery_options),
        fixed_(&lottery_.metrics()),
        picks_(lottery_.metrics().counter("sched.hybrid.picks")) {}

  // Moves a thread into the fixed-priority band (larger = higher). It keeps
  // its currency/client but stops competing in lotteries. May be called
  // while the thread is ready; takes effect immediately.
  void SetFixedPriority(ThreadId id, int priority);
  // Returns the thread to lottery scheduling.
  void ClearFixedPriority(ThreadId id);
  bool IsFixedPriority(ThreadId id) const;

  // --- Scheduler interface -------------------------------------------------
  void AddThread(ThreadId id, SimTime now) override;
  void RemoveThread(ThreadId id, SimTime now) override;
  void OnReady(ThreadId id, SimTime now) override;
  void OnBlocked(ThreadId id, SimTime now) override;
  ThreadId PickNext(SimTime now) override;
  void OnQuantumEnd(ThreadId id, SimDuration used, SimDuration quantum,
                    SimTime now) override;
  std::string name() const override { return "hybrid"; }
  // The embedded lottery scheduler: funding goes through it, and the
  // kernel services transfer and inherit in its economy.
  LotteryScheduler* economy() override { return &lottery_; }

 private:
  LotteryScheduler lottery_;
  PriorityScheduler fixed_;
  std::unordered_set<ThreadId> fixed_members_;
  std::unordered_set<ThreadId> ready_;
  obs::Counter* picks_;
};

}  // namespace lottery

#endif  // SRC_SCHED_HYBRID_H_
