// Partitioned SMP lottery scheduling: one ticket economy with a run queue
// per CPU behind the generic Scheduler interface, with deterministic
// ticket-weighted work stealing across hierarchical balancing domains.
//
// Section 4.2 of the paper sketches "a distributed lottery scheduler" for
// multiprocessors; this module builds it. SmpScheduler is a
// LotteryScheduler with one run queue (and one dispatch RNG) per CPU over
// the single currency table, so dispatch is entirely local while funding,
// transfers and inheritance span the machine. The global lottery's
// proportional-share guarantee is recovered by keeping the per-CPU runnable
// ticket totals equal: if every CPU holds T/P of the ticket value, a thread
// with t tickets wins t/(T/P) of one CPU, i.e. exactly t/T of the machine.
// The balancer therefore migrates ticket *value*, never thread counts.
//
// Balancing walks the DomainMap inside-out (core pair -> package -> system):
// an idle CPU pulls work from the nearest domain that has any, and every
// `balance_period` local dispatches a CPU compares itself against the
// busiest CPU of each widening domain, stealing with probability
// proportional to the ticket imbalance and selecting the migrant by a
// value-weighted lottery over the victim's queue. All balance draws come
// from a dedicated RNG stream (`stream(balance)`), so the per-CPU dispatch
// streams stay bit-identical under rebalance churn — lotlint R2 enforces
// the separation, and tests/smp_identity_test.cc proves the 1-CPU facade
// is bit-identical to a plain LotteryScheduler.
//
// Migration is not free: the affinity cost model prices each candidate move
// through a sim::CrossbarSwitch (one port per CPU). A migration enqueues
// a fixed footprint of cells on the victim->thief virtual circuit — the
// cache footprint being re-fetched — and a balance steal is vetoed when the
// predicted transfer time (backlog + footprint, scaled by domain distance)
// exceeds the imbalance's worth of CPU time per quantum. Migration storms
// thus throttle themselves: the switch is advanced to the check's time
// before its backlog is read, so cells still queued then raise the
// predicted cost, and a drained circuit costs the footprint alone.

#ifndef SRC_SCHED_SMP_SMP_SCHEDULER_H_
#define SRC_SCHED_SMP_SMP_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/lottery_scheduler.h"
#include "src/obs/registry.h"
#include "src/sched/scheduler.h"
#include "src/sched/smp/balance_domains.h"
#include "src/sim/crossbar.h"
#include "src/util/fastrand.h"

namespace lottery {
namespace smp {

class SmpScheduler : public LotteryScheduler {
 public:
  struct Options {
    int num_cpus = 1;
    uint32_t seed = 12345;
    // Economy and run-queue template. seed/metrics/trace are managed by the
    // facade: CPU 0's queue draws from exactly `seed` (the 1-CPU identity
    // contract), CPU i > 0 from an independent SplitMix64-derived stream.
    LotteryScheduler::Options cpu;
    // Master switch for cross-CPU stealing (identity tests turn it off).
    bool steal_enabled = true;
    // Local dispatches between periodic balance checks on a CPU.
    uint32_t balance_period = 16;
    obs::Registry* metrics = nullptr;
    etrace::TraceBuffer* trace = nullptr;
  };

  explicit SmpScheduler(Options options);
  ~SmpScheduler() override;

  // --- Scheduler interface -------------------------------------------------
  void AddThread(ThreadId id, SimTime now) override;
  void RemoveThread(ThreadId id, SimTime now) override;
  void OnReady(ThreadId id, SimTime now) override;
  void OnBlocked(ThreadId id, SimTime now) override;
  ThreadId PickNext(SimTime now) override { return PickNextOnCpu(0, now); }
  ThreadId PickNextOnCpu(int cpu, SimTime now) override;
  void OnQuantumEnd(ThreadId id, SimDuration used, SimDuration quantum,
                    SimTime now) override;
  int partitioned_cpus() const override { return options_.num_cpus; }
  std::string name() const override { return "smp-lottery"; }

  // --- Funding -------------------------------------------------------------
  using LotteryScheduler::FundThread;
  // Shorthand for FundThread(id, table().base(), amount).
  Ticket* FundThread(ThreadId id, int64_t amount);

  // --- Introspection (tests, benches) --------------------------------------
  int num_cpus() const { return options_.num_cpus; }
  int HomeCpu(ThreadId id) const { return QueueOf(id); }
  const DomainMap& domains() const { return domains_; }
  CrossbarSwitch& crossbar() { return xbar_; }
  FastRand& balance_rng() { return balance_rng_; }  // lotlint: stream(balance)
  uint64_t steals() const { return steals_; }
  uint64_t migrations() const { return migrations_; }
  // Times a balance steal was vetoed by the crossbar cost model.
  uint64_t cost_vetoes() const { return cost_vetoes_; }
  // Structural invariants: every queued thread sits in its home CPU's
  // queue, and a running thread is homed on its CPU and never queued.
  // Throws on violation.
  void CheckIntegrity() const;

  // Forcible migration hook for tests: moves a queued thread to `dst`.
  // Throws if the thread is running, blocked-out of the queue, or already
  // on `dst`.
  void Migrate(ThreadId id, int dst, SimTime now);

 private:
  // Drops a thread's running claim on its CPU (requeue/block/removal).
  void ClearRunning(ThreadId id);

  // Runnable ticket value assigned to a CPU: its queue total plus the value
  // of the thread it is currently running. Both terms are maintained
  // incrementally by the currency table's dirty propagation.
  uint64_t AssignedValue(int c);

  // Idle pull: nearest-domain victim with queued work, migrant chosen by a
  // value-weighted lottery on stream(balance). Always steals if anyone has
  // work (work conservation beats affinity for an idle CPU).
  void TryIdleSteal(int cpu, SimTime now);
  // Periodic rebalance: busiest-CPU-of-domain selection, probabilistic
  // steal proportional to ticket imbalance, crossbar cost veto.
  void TryBalanceSteal(int cpu, SimTime now);

  // Weighted pick over a victim queue snapshot; uniform when all zero.
  // `max_value` (0 = unbounded) filters out migrants bigger than the gap
  // they are meant to close. Returns kInvalidThreadId if nothing qualifies.
  ThreadId PickMigrant(const std::vector<std::pair<ThreadId, uint64_t>>& snap,
                       uint64_t max_value);

  // Crossbar bookkeeping: the victim->thief circuit, created on first use.
  CrossbarSwitch::CircuitId CircuitFor(int src, int dst);
  // Predicted transfer time for one migration over `level` domain hops,
  // behind the circuit's backlog at `now`.
  int64_t PredictCostNs(int src, int dst, int level, SimTime now);

  // Moves `id` (queued on `src`) to `dst`'s queue and prices the move on
  // the crossbar; emits etrace/counters with `type` (kSteal or kMigrate).
  void DoMigrate(ThreadId id, int src, int dst, SimTime now, uint16_t type,
                 uint64_t imbalance);

  Options options_;
  DomainMap domains_;
  // Balance draws live on their own stream so per-CPU dispatch sequences
  // are invariant under steal_enabled and rebalance churn.
  FastRand balance_rng_;  // lotlint: stream(balance)
  FastRand xbar_rng_;     // lotlint: stream(device)
  CrossbarSwitch xbar_;
  std::map<std::pair<int, int>, CrossbarSwitch::CircuitId> circuits_;
  std::vector<ThreadId> running_tid_;        // per CPU, kInvalid when none
  std::vector<uint32_t> since_balance_;      // dispatches since last check
  int next_home_ = 0;                        // round-robin spawn placement
  SimDuration last_quantum_ = SimDuration::Millis(100);
  uint64_t steals_ = 0;
  uint64_t migrations_ = 0;
  uint64_t cost_vetoes_ = 0;

  // Obs hooks (resolved once; raw pointers into metrics()).
  obs::Counter* m_steals_;
  obs::Counter* m_migrations_;
  obs::Counter* m_balance_checks_;
  obs::Counter* m_cost_vetoes_;
  obs::Counter* m_xbar_cells_;
  std::vector<obs::Counter*> m_cpu_dispatches_;
  std::vector<obs::Counter*> m_cpu_steals_in_;
  std::vector<obs::Counter*> m_cpu_steals_out_;
};

}  // namespace smp
}  // namespace lottery

#endif  // SRC_SCHED_SMP_SMP_SCHEDULER_H_
