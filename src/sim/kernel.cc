#include "src/sim/kernel.h"

#include <algorithm>
#include <stdexcept>

#include "src/obs/etrace/trace_buffer.h"
#include "src/sim/fault.h"

namespace lottery {

namespace {

// Scheduler::Tick cadence (decay-usage needs ~1 s).
constexpr SimDuration kTickInterval = SimDuration::Seconds(1);

// Maps the kernel's slice outcome onto the trace encoding (event.h keeps
// its own constants so the file format never shifts under enum edits).
uint16_t SliceFlagOf(Disposition disposition) {
  switch (disposition) {
    case Disposition::kPreempted:
      return etrace::kSlicePreempt;
    case Disposition::kYield:
      return etrace::kSliceYield;
    case Disposition::kSleep:
      return etrace::kSliceSleep;
    case Disposition::kBlock:
      return etrace::kSliceBlock;
    case Disposition::kExit:
      return etrace::kSliceExit;
  }
  return etrace::kSlicePreempt;
}

}  // namespace

RunContext::RunContext(Kernel* kernel, ThreadId self, SimTime start,
                       SimDuration budget)
    : kernel_(kernel),
      tracer_(kernel->tracer()),
      self_(self),
      start_(start),
      budget_(budget) {}

SimDuration RunContext::Consume(SimDuration want) {
  if (want.nanos() < 0) {
    throw std::invalid_argument("Consume: negative duration");
  }
  const SimDuration granted = want < remaining() ? want : remaining();
  used_ += granted;
  return granted;
}

int64_t RunContext::ConsumeUnits(SimDuration unit, SimDuration* partial) {
  const int64_t cost = unit.nanos();
  const int64_t done = partial->nanos();
  if (cost <= 0 || done < 0 || done >= cost) {
    throw std::invalid_argument("ConsumeUnits: need 0 <= partial < unit");
  }
  const int64_t left = remaining().nanos();
  const int64_t to_first = cost - done;
  int64_t at = now().nanos() + to_first;  // the first completion instant
  used_ = budget_;
  if (left < to_first) {
    *partial += SimDuration::Nanos(left);
    return 0;
  }
  const int64_t units = 1 + (left - to_first) / cost;
  *partial = SimDuration::Nanos((left - to_first) % cost);
  if (tracer_ != nullptr) {
    // Completions fall every `cost` from `at`: report each window's run of
    // them with one add.
    for (int64_t pending = units; pending > 0;) {
      if (at >= progress_edge_ns_) {
        OpenProgressWindow(at, 0);
      }
      const int64_t in_window =
          std::min(pending, (progress_edge_ns_ - 1 - at) / cost + 1);
      progress_sum_ += in_window;
      pending -= in_window;
      at += in_window * cost;
    }
  }
  return units;
}

void RunContext::Yield() {
  if (disposition_set_) {
    throw std::logic_error("RunContext: disposition already set");
  }
  disposition_ = Disposition::kYield;
  disposition_set_ = true;
}

void RunContext::SleepFor(SimDuration duration) {
  if (disposition_set_) {
    throw std::logic_error("RunContext: disposition already set");
  }
  disposition_ = Disposition::kSleep;
  sleep_ = duration;
  disposition_set_ = true;
}

void RunContext::Block() {
  if (disposition_set_) {
    throw std::logic_error("RunContext: disposition already set");
  }
  disposition_ = Disposition::kBlock;
  disposition_set_ = true;
}

void RunContext::ExitThread() {
  if (disposition_set_) {
    throw std::logic_error("RunContext: disposition already set");
  }
  disposition_ = Disposition::kExit;
  disposition_set_ = true;
}

void RunContext::OpenProgressWindow(int64_t at_ns, int64_t delta) {
  FlushProgress();
  // The window holding at_ns is [k·w, (k+1)·w): an instant on an edge opens
  // the next window, as in Tracer::AddProgress.
  const int64_t window = tracer_->window().nanos();
  progress_edge_ns_ = (at_ns / window + 1) * window;
  progress_sum_ = delta;
}

void RunContext::FlushProgress() {
  if (progress_edge_ns_ == 0) {
    return;
  }
  const SimTime window_start =
      SimTime::FromNanos(progress_edge_ns_ - tracer_->window().nanos());
  tracer_->AddProgress(self_, window_start, progress_sum_);
  progress_edge_ns_ = 0;
}

Kernel::Kernel(Scheduler* scheduler, Options options, Tracer* tracer)
    : scheduler_(scheduler),
      lottery_(scheduler->economy()),
      options_(options),
      tracer_(tracer),
      now_(SimTime::Zero()),
      last_tick_(SimTime::Zero()),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &obs::Registry::Default()),
      m_dispatches_(metrics_->counter("kernel.dispatches")),
      m_quantum_expiries_(metrics_->counter("kernel.quantum_expiries")),
      m_yields_(metrics_->counter("kernel.yields")),
      m_sleeps_(metrics_->counter("kernel.sleeps")),
      m_blocks_(metrics_->counter("kernel.blocks")),
      m_wakes_(metrics_->counter("kernel.wakes")),
      m_exits_(metrics_->counter("kernel.exits")),
      m_context_switches_(metrics_->counter("kernel.context_switches")),
      m_slice_us_(metrics_->histogram("kernel.slice_us")) {
  if (options_.quantum.nanos() <= 0) {
    throw std::invalid_argument("Kernel: quantum must be positive");
  }
  if (options_.num_cpus < 1) {
    throw std::invalid_argument("Kernel: need at least one CPU");
  }
  const int partitioned = scheduler_->partitioned_cpus();
  if (partitioned != 0 && partitioned != options_.num_cpus) {
    throw std::invalid_argument(
        "Kernel: scheduler is partitioned for " + std::to_string(partitioned) +
        " CPUs but num_cpus = " + std::to_string(options_.num_cpus));
  }
  cpu_free_.assign(static_cast<size_t>(options_.num_cpus), SimTime::Zero());
  cpu_last_.assign(static_cast<size_t>(options_.num_cpus),
                   kInvalidThreadId);
  cpu_busy_.assign(static_cast<size_t>(options_.num_cpus), SimDuration{});
}

Kernel::~Kernel() = default;

Kernel::Thread& Kernel::ThreadOf(ThreadId tid) {
  if (tid == 0 || tid >= next_tid_) {
    throw std::invalid_argument("Kernel: unknown thread " +
                                std::to_string(tid));
  }
  return threads_[tid - 1];
}

const Kernel::Thread& Kernel::ThreadOf(ThreadId tid) const {
  return const_cast<Kernel*>(this)->ThreadOf(tid);
}

void Kernel::SetTrace(etrace::TraceBuffer* trace) {
  options_.trace = trace;
  if (!etrace::On(options_.trace, etrace::kCatSched)) {
    return;
  }
  // Late attach: re-emit thread names (tid order for determinism; records
  // are tid-indexed) so the trace is self-describing even when recording
  // starts mid-run.
  for (ThreadId tid = 1; tid < next_tid_; ++tid) {
    etrace::Event e;
    e.t_ns = now_.nanos();
    e.a = tid;
    e.name = options_.trace->Intern(threads_[tid - 1].name);
    e.type = static_cast<uint16_t>(etrace::EventType::kThreadName);
    options_.trace->Append(e);
  }
}

ThreadId Kernel::Spawn(const std::string& name,
                       std::unique_ptr<ThreadBody> body, bool start_ready) {
  const ThreadId tid = next_tid_++;
  Thread& thread = threads_.EmplaceBack();
  thread.name = name;
  bodies_.push_back(std::move(body));
  ++live_threads_;
  if (etrace::On(options_.trace, etrace::kCatSched)) {
    etrace::Event e;
    e.t_ns = now_.nanos();
    e.a = tid;
    e.name = options_.trace->Intern(name);
    e.type = static_cast<uint16_t>(etrace::EventType::kThreadName);
    options_.trace->Append(e);
  }
  scheduler_->AddThread(tid, now_);
  if (start_ready) {
    Wake(tid, now_);
  }
  return tid;
}

void Kernel::Wake(ThreadId tid, SimTime when) {
  Thread& thread = ThreadOf(tid);
  if (!thread.alive) {
    throw std::logic_error("Kernel::Wake: thread " + thread.name +
                           " already exited");
  }
  if (thread.runnable) {
    // A wake racing a slice still in flight on another CPU must not be
    // lost: upgrade the slice's eventual block/sleep to a requeue.
    if (thread.running) {
      thread.pending_wake = true;
    }
    return;
  }
  FaultInjector* faults = options_.faults;
  if (faults != nullptr &&
      faults->active(FaultClass::kDelayedUnblock) &&
      !faults->IsProtected(tid) &&
      faults->Fire(FaultClass::kDelayedUnblock, when)) {
    // The wake condition already happened (mutex granted, reply sent,
    // timer expired); only its delivery is postponed.
    const SimDuration delay = faults->DelayOf(FaultClass::kDelayedUnblock);
    events_.Schedule(when + delay, [this, tid](SimTime at) {
      if (Alive(tid)) {
        WakeNow(tid, at);
      }
    });
    return;
  }
  WakeNow(tid, when);
}

void Kernel::WakeNow(ThreadId tid, SimTime when) {
  Thread& thread = ThreadOf(tid);
  if (thread.runnable) {
    // A delayed wake can land after another wake already delivered; the
    // same lost-wakeup race as in Wake applies.
    if (thread.running) {
      thread.pending_wake = true;
    }
    return;
  }
  thread.sleeping = false;
  thread.runnable = true;
  ++runnable_count_;
  m_wakes_->Inc();
  if (etrace::On(options_.trace, etrace::kCatSched)) {
    etrace::Event e;
    e.t_ns = when.nanos();
    e.a = tid;
    e.type = static_cast<uint16_t>(etrace::EventType::kWake);
    options_.trace->Append(e);
  }
  etrace::SetNow(options_.trace, when.nanos());
  scheduler_->OnReady(tid, when);
}

void Kernel::AddExitObserver(ThreadExitObserver* observer) {
  exit_observers_.push_back(observer);
}

void Kernel::RemoveExitObserver(ThreadExitObserver* observer) {
  exit_observers_.erase(
      std::remove(exit_observers_.begin(), exit_observers_.end(), observer),
      exit_observers_.end());
}

std::vector<ThreadId> Kernel::SleepingThreads() const {
  std::vector<ThreadId> sleeping;
  for (ThreadId tid = 1; tid < next_tid_; ++tid) {
    const Thread& thread = threads_[tid - 1];
    if (thread.alive && thread.sleeping) {
      sleeping.push_back(tid);
    }
  }
  return sleeping;
}

bool Kernel::Alive(ThreadId tid) const {
  return tid >= 1 && tid < next_tid_ && threads_[tid - 1].alive;
}

const std::string& Kernel::ThreadName(ThreadId tid) const {
  return ThreadOf(tid).name;
}

void Kernel::DeliverTicks() {
  while (now_ - last_tick_ >= kTickInterval) {
    last_tick_ += kTickInterval;
    scheduler_->Tick(last_tick_);
  }
}

void Kernel::FinishSlice(ThreadId tid, Disposition disposition,
                         SimDuration sleep, SimTime when) {
  Thread& thread = ThreadOf(tid);
  thread.running = false;
  const bool pending_wake = thread.pending_wake;
  thread.pending_wake = false;
  switch (disposition) {
    case Disposition::kPreempted:
      m_quantum_expiries_->Inc();
      scheduler_->OnReady(tid, when);
      break;
    case Disposition::kYield:
      m_yields_->Inc();
      scheduler_->OnReady(tid, when);
      break;
    case Disposition::kSleep:
      m_sleeps_->Inc();
      if (pending_wake) {
        scheduler_->OnReady(tid, when);
        break;
      }
      thread.runnable = false;
      --runnable_count_;
      thread.sleeping = true;
      scheduler_->OnBlocked(tid, when);
      events_.Schedule(when + sleep, [this, tid](SimTime at) {
        if (Alive(tid)) {
          Wake(tid, at);
        }
      });
      break;
    case Disposition::kBlock:
      m_blocks_->Inc();
      if (pending_wake) {
        // The unblocking event (e.g. a mutex grant from another CPU)
        // arrived while the slice was in flight.
        scheduler_->OnReady(tid, when);
        break;
      }
      thread.runnable = false;
      --runnable_count_;
      scheduler_->OnBlocked(tid, when);
      break;
    case Disposition::kExit:
      m_exits_->Inc();
      thread.runnable = false;
      --runnable_count_;
      thread.alive = false;
      --live_threads_;
      // Let services withdraw tickets tied to this thread (mutex
      // inheritance, RPC server funding) while its currency still exists.
      for (ThreadExitObserver* observer : exit_observers_) {
        observer->OnThreadExit(tid, when);
      }
      scheduler_->RemoveThread(tid, when);
      // The body is retained until the kernel is destroyed: callers commonly
      // hold a raw pointer into it to harvest final workload state after the
      // run, and a dead thread's Run() is never re-entered.
      break;
  }
}

void Kernel::RunUntil(SimTime end) {
  util::SeqGuard guard(dispatch_seq_);
  for (;;) {
    // Dispatch on the CPU that frees up first.
    size_t cpu = 0;
    for (size_t i = 1; i < cpu_free_.size(); ++i) {
      if (cpu_free_[i] < cpu_free_[cpu]) {
        cpu = i;
      }
    }
    if (cpu_free_[cpu] >= end) {
      // The clock ends at the dispatch frontier: a slice that crossed the
      // horizon has already been charged, so now() reflects it (this also
      // keeps used + idle time exactly equal to elapsed capacity).
      now_ = cpu_free_[cpu];
      events_.RunUntil(now_);
      DeliverTicks();
      PollSampler();
      return;
    }
    if (cpu_free_[cpu] > now_) {
      now_ = cpu_free_[cpu];
    }
    events_.RunUntil(now_);
    DeliverTicks();
    PollSampler();

    etrace::SetNow(options_.trace, now_.nanos());
    const ThreadId tid = scheduler_->PickNextOnCpu(static_cast<int>(cpu), now_);
    if (tid == kInvalidThreadId) {
      // This CPU idles to the next event (or the horizon). Slice-end
      // events keep the queue non-empty while any slice is in flight.
      SimTime target = end;
      if (!events_.empty() && events_.next_time() < target) {
        target = events_.next_time();
      }
      if (target <= now_) {
        if (events_.empty()) {
          // Quiescent: nothing runnable anywhere and nothing pending.
          return;
        }
        continue;
      }
      idle_time_ += target - now_;
      cpu_free_[cpu] = target;
      continue;
    }

    // ThreadOf validates the tid; the body's address then comes from its
    // own table, so its load does not wait on the record's.
    Thread& thread = ThreadOf(tid);
    ThreadBody* const body = bodies_[tid - 1].get();
    if (!thread.runnable) {
      throw std::logic_error("Kernel: scheduler picked non-runnable thread");
    }
    if (tid != cpu_last_[cpu]) {
      ++context_switches_;
      m_context_switches_->Inc();
      cpu_last_[cpu] = tid;
    }
    ++thread.dispatches;
    ++total_dispatches_;
    thread.last_dispatched = now_;
    m_dispatches_->Inc();
    thread.running = true;
    thread.pending_wake = false;

    RunContext ctx(this, tid, now_, options_.quantum);
    body->Run(ctx);
    // Before the outcome is applied: an exit, block, sleep or injected
    // crash keeps every unit the slice reported.
    ctx.FlushProgress();
    m_slice_us_->RecordSampled(
        static_cast<uint64_t>(ctx.used().nanos()) / 1000u);

    if (tracer_ != nullptr && tracer_->dispatch_log_enabled()) {
      tracer_->RecordDispatch(tid, static_cast<int>(cpu), now_, ctx.used());
    }

    // Livelock guard: a body that never consumes CPU and stays runnable
    // would spin the host at a frozen virtual clock. That is always a
    // workload bug; fail loudly instead of hanging.
    if (ctx.used().nanos() == 0) {
      if (++zero_use_streak_ > 100000) {
        throw std::logic_error("Kernel: livelock — thread '" + thread.name +
                               "' keeps running without consuming CPU");
      }
    } else {
      zero_use_streak_ = 0;
    }

    thread.cpu_time += ctx.used();
    cpu_busy_[cpu] += ctx.used();
    const SimTime slice_end = now_ + ctx.used();
    cpu_free_[cpu] = slice_end;

    Disposition disposition = ctx.disposition();
    if (!ctx.disposition_set_) {
      disposition = ctx.remaining().nanos() == 0 ? Disposition::kPreempted
                                                 : Disposition::kYield;
    }
    if (options_.faults != nullptr && disposition != Disposition::kExit &&
        options_.faults->active(FaultClass::kThreadCrash) &&
        !options_.faults->IsProtected(tid) &&
        options_.faults->Fire(FaultClass::kThreadCrash, slice_end)) {
      // Involuntary exit at the end of the quantum: whatever the body
      // requested (block, sleep, requeue) is overridden, and the thread
      // dies holding its service state — exit observers roll it back.
      disposition = Disposition::kExit;
    }
    if (etrace::On(options_.trace, etrace::kCatSched)) {
      // Stamped at slice *start* so exporters can render it as a duration
      // slice; v1 carries the length, flags the final disposition (after
      // any injected-crash override).
      etrace::Event e;
      e.t_ns = now_.nanos();
      e.v1 = static_cast<uint64_t>(ctx.used().nanos());
      e.a = tid;
      e.b = static_cast<uint32_t>(cpu);
      e.flags = SliceFlagOf(disposition);
      e.type = static_cast<uint16_t>(etrace::EventType::kSlice);
      options_.trace->Append(e);
    }
    etrace::SetNow(options_.trace, slice_end.nanos());
    scheduler_->OnQuantumEnd(tid, ctx.used(), options_.quantum, slice_end);
    if (options_.num_cpus == 1) {
      // Single CPU: apply the outcome immediately (the next dispatch is at
      // slice_end anyway); avoids queueing an event per slice.
      now_ = slice_end;
      FinishSlice(tid, disposition, ctx.sleep_duration(), slice_end);
    } else {
      // SMP: the thread occupies this CPU until slice_end; requeueing it
      // earlier would let another CPU run it concurrently.
      const SimDuration sleep = ctx.sleep_duration();
      events_.Schedule(slice_end,
                       [this, tid, disposition, sleep](SimTime when) {
                         FinishSlice(tid, disposition, sleep, when);
                       });
    }
    DeliverTicks();
  }
}

SimDuration Kernel::CpuTime(ThreadId tid) const {
  return ThreadOf(tid).cpu_time;
}

uint64_t Kernel::Dispatches(ThreadId tid) const {
  return ThreadOf(tid).dispatches;
}

SimDuration Kernel::CpuBusy(int cpu) const {
  util::SeqGuard guard(dispatch_seq_);
  if (cpu < 0 || static_cast<size_t>(cpu) >= cpu_busy_.size()) {
    throw std::out_of_range("Kernel::CpuBusy: bad cpu index");
  }
  return cpu_busy_[static_cast<size_t>(cpu)];
}

SimDuration Kernel::CpuBusySampled(int cpu) const {
  if (cpu < 0 || static_cast<size_t>(cpu) >= cpu_busy_.size()) {
    throw std::out_of_range("Kernel::CpuBusySampled: bad cpu index");
  }
  return cpu_busy_[static_cast<size_t>(cpu)];
}

void Kernel::SetSampler(SampleHook* hook) {
  sampler_ = hook;
  // Fire at the next loop step: a freshly attached sampler takes its
  // baseline immediately instead of one interval late.
  sampler_due_ns_ = now_.nanos();
}

}  // namespace lottery
