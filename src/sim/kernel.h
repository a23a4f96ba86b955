// The simulated kernel: a quantum-driven dispatcher over one or more CPUs
// (Options::num_cpus) that stands in for the modified Mach 3.0 kernel of
// the paper's prototype.
//
// Threads are ThreadBody state machines. On dispatch, a body receives a
// RunContext with a CPU budget (one scheduling quantum); it consumes
// simulated CPU with Consume() (or ConsumeUnits()), reports workload
// progress, and ends the slice runnable (preempted/yield), sleeping, blocked
// on a kernel service (mutex, RPC), or exited. The kernel charges exactly the
// consumed time, notifies the policy Scheduler (lottery or any baseline),
// delivers timer events, and advances the virtual clock. Everything is
// deterministic.

#ifndef SRC_SIM_KERNEL_H_
#define SRC_SIM_KERNEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/lottery_scheduler.h"
#include "src/obs/counter.h"
#include "src/obs/registry.h"
#include "src/sched/scheduler.h"
#include "src/sim/event_queue.h"
#include "src/sim/trace.h"
#include "src/util/arena.h"
#include "src/util/sim_time.h"
#include "src/util/thread_safety.h"

namespace lottery {

class FaultInjector;
class Kernel;
class RunContext;

// Notified when a thread exits — voluntarily or via an injected crash —
// after it leaves the run queue but *before* the scheduler destroys its
// currency. Kernel services (mutexes, RPC ports) use this to withdraw
// tickets that fund, or are funded by, the dying thread: the last moment
// such tickets are still safely attached.
class ThreadExitObserver {
 public:
  virtual ~ThreadExitObserver() = default;
  virtual void OnThreadExit(ThreadId tid, SimTime when) = 0;
};

// Periodic observation hook driven by the dispatch loop (implemented by
// ts::Sampler in src/obs/timeseries/). Sample() fires from inside RunUntil
// whenever the virtual clock reaches the hook's due time — i.e. with the
// dispatch serialization domain already held, between dispatch steps — and
// returns the next due time (nanos). Implementations must use the kernel's
// loop-safe readers (ThreadRunnable, LastDispatched, CpuBusySampled,
// idle_time, ...) and must never re-enter RunUntil or CpuBusy: those take
// the dispatch domain again, which Debug builds assert against.
// The polling compiles out entirely under LOTTERY_OBS=OFF.
class SampleHook {
 public:
  virtual ~SampleHook() = default;
  virtual int64_t Sample(SimTime now) = 0;
};

// A thread's behaviour. Bodies are small state machines: each Run call may span
// several logical phases, consuming CPU via ctx.Consume and invoking kernel
// services; it returns when the budget is exhausted or the thread must stop
// running (yield/sleep/block/exit).
class ThreadBody {
 public:
  virtual ~ThreadBody() = default;
  virtual void Run(RunContext& ctx) = 0;
};

// How a slice ended, from the kernel's perspective.
enum class Disposition : uint8_t {
  kPreempted,  // budget exhausted, still runnable
  kYield,      // gave up the remainder, still runnable
  kSleep,      // sleeping for a duration
  kBlock,      // parked on a service; something will call Kernel::Wake
  kExit,       // thread finished
};

class RunContext {
 public:
  RunContext(Kernel* kernel, ThreadId self, SimTime start, SimDuration budget);

  ThreadId self() const { return self_; }
  Kernel& kernel() { return *kernel_; }

  // Virtual time at the current point inside the slice.
  SimTime now() const { return start_ + used_; }
  SimDuration used() const { return used_; }
  SimDuration remaining() const { return budget_ - used_; }

  // Consumes up to `want` CPU; returns the amount actually granted
  // (truncated at the end of the slice).
  SimDuration Consume(SimDuration want);

  // Consumes the rest of the slice as back-to-back units of work costing
  // `unit` each, the first of which already has `*partial` (< unit) done.
  // Reports one unit of progress at each completion instant, stores the
  // unfinished remainder back into `*partial`, and returns the number of
  // units completed. Closed form: O(tracer windows crossed), not O(units).
  int64_t ConsumeUnits(SimDuration unit, SimDuration* partial);

  // Slice-ending requests. At most one; checked by the kernel.
  void Yield();
  void SleepFor(SimDuration duration);
  void Block();
  void ExitThread();

  // Workload progress at now(), for the kernel's Tracer (if any). Reports
  // are summed per tracer window and handed over once per window the slice
  // crosses (and once when the slice ends), so calling this once per unit
  // of work costs an add and a compare.
  void AddProgress(int64_t delta) {
    if (tracer_ == nullptr) {
      return;
    }
    const int64_t at_ns = now().nanos();
    if (at_ns < progress_edge_ns_) {
      progress_sum_ += delta;
    } else {
      OpenProgressWindow(at_ns, delta);
    }
  }

  Disposition disposition() const { return disposition_; }
  SimDuration sleep_duration() const { return sleep_; }

 private:
  friend class Kernel;

  // Flushes the pending window and starts the one holding `at_ns`.
  void OpenProgressWindow(int64_t at_ns, int64_t delta);
  // Hands the pending window's sum to the Tracer. The kernel calls this once
  // after the body returns, before the slice's outcome is applied.
  void FlushProgress();

  Kernel* kernel_;
  Tracer* tracer_;
  ThreadId self_;
  SimTime start_;
  SimDuration budget_;
  SimDuration used_{};
  Disposition disposition_ = Disposition::kPreempted;
  bool disposition_set_ = false;
  SimDuration sleep_{};
  // Progress reported in the tracer window ending at progress_edge_ns_ and
  // not yet handed to the Tracer. Edge 0 means none is pending (a real edge
  // is at least one window past time zero).
  int64_t progress_edge_ns_ = 0;
  int64_t progress_sum_ = 0;
};

class Kernel {
 public:
  struct Options {
    // The paper's Mach platform used 100 ms; Section 2 discusses 10 ms.
    SimDuration quantum = SimDuration::Millis(100);
    // Number of CPUs sharing the run queue. 1 reproduces the paper's
    // platform exactly; >1 explores the "distributed lottery scheduler"
    // direction Section 4.2 sketches. Slices execute atomically, so
    // cross-CPU service effects become visible at dispatch granularity
    // (bounded by one quantum) — see DESIGN.md.
    int num_cpus = 1;
    // Metric sink; nullptr selects obs::Registry::Default(). Kernel services
    // (mutexes, RPC ports) inherit this registry via metrics().
    obs::Registry* metrics = nullptr;
    // Fault injector consulted at dispatch and wake opportunities; kernel
    // services pick it up via faults(). nullptr (the default) disables
    // injection entirely — no hooks run, no randomness is drawn.
    FaultInjector* faults = nullptr;
    // Structured-event trace (optional). The kernel records thread names,
    // CPU slices (with dispositions) and wakes, advances the buffer's
    // sim-time cursor, and hands the buffer to its services via etrace().
    // Pass the same buffer to LotteryScheduler::Options::trace so decisions
    // and slices interleave in one stream. Null disables all hooks.
    etrace::TraceBuffer* trace = nullptr;
  };

  // `scheduler` must outlive the kernel. `tracer` may be null.
  Kernel(Scheduler* scheduler, Options options, Tracer* tracer = nullptr);
  ~Kernel();
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Thread management ----------------------------------------------------

  ThreadId Spawn(const std::string& name, std::unique_ptr<ThreadBody> body,
                 bool start_ready = true);
  // Marks a blocked/never-started thread runnable at time `when`
  // (service wakeups use the in-slice timestamp).
  void Wake(ThreadId tid, SimTime when);
  bool Alive(ThreadId tid) const;
  const std::string& ThreadName(ThreadId tid) const;

  // Exit observers fire for every thread exit (voluntary or injected crash),
  // in registration order, before the scheduler's RemoveThread. Observers
  // must not wake or re-register the dying thread.
  void AddExitObserver(ThreadExitObserver* observer);
  void RemoveExitObserver(ThreadExitObserver* observer);

  // Threads currently in a timed sleep (SleepFor), in tid order. The chaos
  // controller's spurious-wakeup fault targets these — never threads blocked
  // on a service, whose protocols require their wake to mean completion.
  std::vector<ThreadId> SleepingThreads() const;

  // --- Execution -------------------------------------------------------------

  // Runs the machine until the virtual clock reaches `end` (or nothing is
  // left to do). May be called repeatedly to single-step experiments.
  void RunUntil(SimTime end);
  void RunFor(SimDuration duration) { RunUntil(now_ + duration); }

  SimTime now() const { return now_; }
  EventQueue& events() { return events_; }
  Scheduler* scheduler() { return scheduler_; }
  // The policy scheduler's ticket economy (Scheduler::economy()): non-null
  // under both lottery schedulers, plain and partitioned SMP, and null
  // under the ticketless baselines. Kernel services (RPC ports, mutexes)
  // use it for ticket transfers and inheritance.
  LotteryScheduler* lottery() { return lottery_; }
  Tracer* tracer() { return tracer_; }
  // Structured-event trace shared by the kernel and its services (mutexes,
  // RPC ports pick it up from here); may be null.
  etrace::TraceBuffer* etrace() const { return options_.trace; }

  // Attaches (or detaches, with nullptr) the structured-event trace at
  // runtime. On attach, kThreadName events are re-emitted for all threads
  // (in tid order) so a late-attached trace is still self-describing.
  // Services that interned names at construction (ports, mutexes, disk)
  // keep their ids only when the attached buffer is the one they interned
  // into. Pair with LotteryScheduler::SetTrace for a single shared stream.
  void SetTrace(etrace::TraceBuffer* trace);
  // Attaches (or detaches, with nullptr) a periodic sampling hook. It first
  // fires at the next dispatch-loop step, then at the cadence its Sample()
  // requests (sample times are quantized to dispatch-loop steps, so they
  // are a deterministic function of the seed and the RunUntil call
  // pattern). Costs one compare per loop iteration when attached; the whole
  // poll folds away under LOTTERY_OBS=OFF.
  void SetSampler(SampleHook* hook);
  SampleHook* sampler() const { return sampler_; }
  // Fault injector shared by the kernel and its services; may be null.
  FaultInjector* faults() { return options_.faults; }
  const Options& options() const { return options_; }
  // Registry the kernel's obs hooks write into (never null).
  obs::Registry& metrics() { return *metrics_; }

  // --- Accounting -------------------------------------------------------------

  SimDuration CpuTime(ThreadId tid) const;
  uint64_t Dispatches(ThreadId tid) const;
  uint64_t context_switches() const { return context_switches_; }
  // Total idle CPU-time summed over all CPUs.
  SimDuration idle_time() const { return idle_time_; }
  size_t num_live_threads() const { return live_threads_; }
  int num_cpus() const { return options_.num_cpus; }
  // Busy time accumulated by one CPU.
  SimDuration CpuBusy(int cpu) const;

  // --- Loop-safe readers (SampleHook implementations; see SampleHook) -------

  // Whether the thread is in the run queue or running.
  bool ThreadRunnable(ThreadId tid) const { return ThreadOf(tid).runnable; }
  // Virtual time of the thread's most recent dispatch (Zero if never run).
  SimTime LastDispatched(ThreadId tid) const {
    return ThreadOf(tid).last_dispatched;
  }
  size_t num_runnable() const { return runnable_count_; }
  // Dispatches summed over all threads (monotone; avoids a per-thread sweep
  // on the sample path).
  uint64_t total_dispatches() const { return total_dispatches_; }
  // Busy time of one CPU without entering the dispatch domain: sampling
  // hooks run inside RunUntil, where the domain is already held and
  // re-entry would assert. Serialized by construction — only the dispatch
  // loop itself calls into hooks.
  SimDuration CpuBusySampled(int cpu) const NO_THREAD_SAFETY_ANALYSIS;

 private:
  friend class RunContext;

  struct Thread {
    std::string name;
    std::unique_ptr<ThreadBody> body;
    bool alive = true;
    bool runnable = false;  // in run queue or running
    bool running = false;   // currently occupying a CPU (slice in flight)
    // A Wake arrived while the slice was in flight; upgrade the slice's
    // block/sleep disposition to a requeue (prevents lost wakeups on SMP).
    bool pending_wake = false;
    // In a timed sleep (set when a kSleep slice parks the thread, cleared
    // on wake); distinguishes spurious-wakeup-eligible threads from ones
    // blocked on a service.
    bool sleeping = false;
    SimDuration cpu_time{};
    uint64_t dispatches = 0;
    // When the thread last won a dispatch (starvation watermarks).
    SimTime last_dispatched{};
  };

  Thread& ThreadOf(ThreadId tid);
  const Thread& ThreadOf(ThreadId tid) const;
  // Wake without fault evaluation: the target of a delayed-unblock
  // injection, and the path every undelayed Wake funnels through.
  void WakeNow(ThreadId tid, SimTime when);
  void DeliverTicks();
  // Applies a slice's outcome at its (virtual) completion time.
  void FinishSlice(ThreadId tid, Disposition disposition, SimDuration sleep,
                   SimTime when);
  // One compare per dispatch-loop iteration; fires the attached SampleHook
  // when the clock has reached its due time. Folds away with LOTTERY_OBS=OFF.
  void PollSampler() {
    if constexpr (obs::kObsEnabled) {
      if (sampler_ != nullptr && now_.nanos() >= sampler_due_ns_) {
        sampler_due_ns_ = sampler_->Sample(now_);
      }
    }
  }

  Scheduler* scheduler_;
  LotteryScheduler* lottery_;
  Options options_;
  Tracer* tracer_;
  EventQueue events_;
  // Thread records, indexed by tid - 1 (tids are dense, assigned from 1).
  // Chunked so records never move or copy on growth — a million spawns cost
  // a few hundred chunk allocations instead of hash-table churn.
  util::ChunkedVector<Thread> threads_;
  SimTime now_;
  SimTime last_tick_;
  ThreadId next_tid_ = 1;
  uint64_t context_switches_ = 0;
  uint64_t total_dispatches_ = 0;
  SimDuration idle_time_{};
  SampleHook* sampler_ = nullptr;
  int64_t sampler_due_ns_ = 0;
  size_t live_threads_ = 0;
  size_t runnable_count_ = 0;
  uint64_t zero_use_streak_ = 0;
  // Serialization domain for the per-CPU dispatch frontier: RunUntil is the
  // only writer today; when the SMP rebalancer gives each CPU its own
  // dispatch loop, this becomes the per-domain dispatch lock. Its reader
  // (CpuBusy) enters the same domain — it must never overlap an in-flight
  // dispatch step, which Debug builds assert.
  mutable util::Seq dispatch_seq_;
  // Per-CPU state: when each CPU is next free, what it last ran (for
  // context-switch counting), and its cumulative busy time.
  std::vector<SimTime> cpu_free_ GUARDED_BY(dispatch_seq_);
  std::vector<ThreadId> cpu_last_ GUARDED_BY(dispatch_seq_);
  std::vector<SimDuration> cpu_busy_ GUARDED_BY(dispatch_seq_);
  std::vector<ThreadExitObserver*> exit_observers_;

  // Obs hooks (resolved once; raw pointers into metrics_).
  obs::Registry* metrics_;
  obs::Counter* m_dispatches_;
  obs::Counter* m_quantum_expiries_;
  obs::Counter* m_yields_;
  obs::Counter* m_sleeps_;
  obs::Counter* m_blocks_;
  obs::Counter* m_wakes_;
  obs::Counter* m_exits_;
  obs::Counter* m_context_switches_;
  obs::LatencyHistogram* m_slice_us_;
};

}  // namespace lottery

#endif  // SRC_SIM_KERNEL_H_
